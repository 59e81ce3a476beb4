(** Reference computations made apart from the code under measurement. *)

(** Stack-distance histogram by a move-to-front LRU stack: an access's
    distance is the depth of its block in the stack, i.e. the number of
    distinct other blocks touched since the block was last used.  Shares
    nothing with [Prelude.Reuse]'s Fenwick-tree algorithm except the
    published bucketing [Prelude.Reuse.bucket]. *)
let stack_histogram trace : Prelude.Reuse.histogram =
  let stack = ref (Array.make 1024 0) and depth = ref 0 in
  let counts = Hashtbl.create 256 and cold = ref 0 in
  Array.iter
    (fun b ->
      let st = !stack in
      let i = ref 0 in
      while !i < !depth && st.(!i) <> b do incr i done;
      if !i = !depth then begin
        incr cold;
        if !depth = Array.length st then begin
          let bigger = Array.make (2 * !depth) 0 in
          Array.blit st 0 bigger 0 !depth;
          stack := bigger
        end;
        incr depth
      end
      else begin
        let d = Prelude.Reuse.bucket !i in
        Hashtbl.replace counts d
          (1 + Option.value (Hashtbl.find_opt counts d) ~default:0)
      end;
      let st = !stack in
      Array.blit st 0 st 1 !i;
      st.(0) <- b)
    trace;
  let entries =
    Hashtbl.fold (fun d c acc -> (d, c) :: acc) counts []
    |> List.sort compare |> Array.of_list
  in
  { Prelude.Reuse.entries; cold = !cold; total = Array.length trace }

let log2 n =
  let rec go n acc = if n <= 1 then acc else go (n lsr 1) (acc + 1) in
  go n 0

(* Repeated consecutive blocks always hit; profiles drop them before the
   reuse analysis, so the reference does the same. *)
let collapse ids =
  let out = ref [] and last = ref None in
  Array.iter
    (fun b ->
      if !last <> Some b then begin
        out := b :: !out;
        last := Some b
      end)
    ids;
  Array.of_list (List.rev !out)

(** Per block size, the data and instruction-fetch streams a profile's
    histograms describe, from the raw traces of [Ir.Interp.run_traces]. *)
let block_streams ~daddrs ~iblocks8 =
  let sizes = Ir.Profile.block_sizes in
  ( Array.map
      (fun bs ->
        let s = log2 bs in
        (bs, collapse (Array.map (fun a -> a asr s) daddrs)))
      sizes,
    Array.map
      (fun bs ->
        let s = log2 bs - 3 in
        (bs, collapse (Array.map (fun b -> b asr s) iblocks8)))
      sizes )

let same_histogram (a : Prelude.Reuse.histogram) (b : Prelude.Reuse.histogram) =
  a.cold = b.cold && a.total = b.total && a.entries = b.entries
