(* Two-layer representation, chosen for the admission probe:

   - [counts] is a flat [ii * nres] int matrix of occupancy counts; a
     fits probe reads it directly and performs no allocation.
   - [cells] is the matching matrix of occupant op-id lists, consulted
     only by the displacement machinery ([conflicting_ops_c],
     [release_c])
     and the printers — never by [fits].

   Reservation tables are precompiled ({!compile}) into a flat
   [(slot_offset, resource, mult)] int array (stride 3), with the
   [(at mod ii, resource)] collapse done once instead of per probe:
   two usages land in the same modulo cell iff their [at]s agree mod
   [ii], independently of the issue time, so the collapse is a property
   of the (table, ii) pair alone.

   On top of the count matrix sit two bit planes ([occ]): plane [p] has
   the bit for cell [(slot, r)] set iff the cell's count is at least
   [p + 1].  For a usage of multiplicity [m] on a resource of capacity
   [c], "count + m <= c" is exactly "plane [c - m] bit clear", so when
   [c - m <= 1] — every resource of the machines we model — the probe
   for one usage is a single AND.  Compilation against the machine's
   capacity vector precomputes, for each issue slot [s = time mod ii],
   the merged per-word masks over all of the table's usages, so a whole
   probe is a handful of AND/load pairs.  Usages with [c - m >= 2] (a
   capacity-3+ resource probed below its brim) fall back to the count
   walk, and a usage with [m > c] can never fit at any time.  Compiling
   without capacities yields a ctable that probes purely by count walk,
   byte-identical to the historical behaviour. *)

let bits_per_word = 63
let words_per_row ii = (ii + bits_per_word - 1) / bits_per_word

(* Number of bit planes carried by [occ]: plane p tracks count >= p+1.
   Two planes cover probes on resources of capacity <= 2 at any
   multiplicity, and capacity > 2 at multiplicity >= c - 1. *)
let planes = 2

type ctable = {
  c_ii : int;
  packed : int array;
      (* all (slot_offset, resource, mult) triples, stride 3; the
         reserve/release/conflict walk *)
  c_nres : int;  (* 0 = compiled without capacities: no bitboard data *)
  never_fits : bool;  (* some usage has mult > cap: no time ever fits *)
  bb_off : int array;  (* length ii+1; per-issue-slot extent in bb_* *)
  bb_word : int array;  (* merged word indices into Mrt.occ *)
  bb_mask : int array;  (* masks, one per bb_word entry *)
  slow : int array;  (* triples the bitboard cannot decide, stride 3 *)
}

type t = {
  ii : int;
  nres : int;
  wpr : int;  (* words per (plane, resource) row of [occ] *)
  caps : int array;
  counts : int array;  (* counts.(slot * nres + r) = occupancy of the cell *)
  occ : int array;  (* planes * nres * wpr bit words, see header comment *)
  cells : int list array;  (* occupying ops of the cell, for eviction *)
  mutable bitprobes : int;  (* fits_c probes answered via the bit planes *)
}

let create machine ~ii =
  if ii < 1 then invalid_arg "Mrt.create: ii must be >= 1";
  let nres = Machine.num_resources machine in
  let wpr = words_per_row ii in
  {
    ii;
    nres;
    wpr;
    caps = machine.Machine.caps;
    counts = Array.make (ii * nres) 0;
    occ = Array.make (planes * nres * wpr) 0;
    cells = Array.make (ii * nres) [];
    bitprobes = 0;
  }

let linear machine ~horizon = create machine ~ii:(max 1 horizon)
let bitprobes t = t.bitprobes

(* --- compilation --------------------------------------------------------- *)

(* The (at mod ii, resource) collapse over a sorted int array: each
   usage becomes the key [slot * stride + resource], so usages of one
   modulo cell sort next to each other and the key order is the
   (slot, resource) order.  Returns the packed triples. *)
let collapse ~ii (table : Reservation.t) =
  let stride =
    1
    + List.fold_left
        (fun m (u : Reservation.usage) -> max m u.resource)
        0 table.usages
  in
  let keys = Array.make (List.length table.usages) 0 in
  List.iteri
    (fun i (u : Reservation.usage) ->
      keys.(i) <- ((u.at mod ii) * stride) + u.resource)
    table.usages;
  let n = Array.length keys in
  (* Reservation.make sorts the usages by (at, resource), so when no
     usage wraps (ii at least the table's length) the keys arrive
     sorted. *)
  let sorted = ref true in
  for i = 1 to n - 1 do
    if keys.(i) < keys.(i - 1) then sorted := false
  done;
  if not !sorted then Array.sort Int.compare keys;
  let distinct = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || keys.(i) <> keys.(i - 1) then incr distinct
  done;
  let packed = Array.make (3 * !distinct) 0 in
  let j = ref (-3) in
  for i = 0 to n - 1 do
    if i = 0 || keys.(i) <> keys.(i - 1) then begin
      j := !j + 3;
      packed.(!j) <- keys.(i) / stride;
      packed.(!j + 1) <- keys.(i) mod stride
    end;
    packed.(!j + 2) <- packed.(!j + 2) + 1
  done;
  packed

(* The word of [Mrt.occ] that fast usage [j] probes when its table
   issues at slot [s]: the usage's cell offset [u_off.(j)] is already
   reduced mod ii, so the wrap is a subtraction, and [u_row.(j)] is the
   first word of its (plane, resource) row. *)
let usage_word ~ii u_off u_row j s =
  let c = s + u_off.(j) in
  u_row.(j) + ((if c >= ii then c - ii else c) / bits_per_word)

(* Whether no fast usage before [j] probes word [w] at slot [s]. *)
let rec first_in_word ~ii u_off u_row j s w =
  j = 0
  || usage_word ~ii u_off u_row (j - 1) s <> w
     && first_in_word ~ii u_off u_row (j - 1) s w

(* Merge the fast usages into per-word masks for every issue slot: at
   issue time [time], the usage (off, r, m) probes plane [caps r - m] of
   cell ((time + off) mod ii, r), and the slot dependence is only
   through time mod ii.  Slot [s]'s entries are [bb_off.(s)] up to
   [bb_off.(s + 1)]; a word's entry is made by the first usage that
   probes it and collects the bits of the later ones.  The entries are
   counted first, so the arrays have exactly their size: this runs per
   (opcode, II) in every candidate-II attempt, and an assoc-list
   version of it once turned the whole bench into minor-GC rendezvous
   thrash under multiple domains. *)
let merge_words ~ii u_off u_row =
  let nfast = Array.length u_off in
  let entries = ref 0 in
  for s = 0 to ii - 1 do
    for j = 0 to nfast - 1 do
      if first_in_word ~ii u_off u_row j s (usage_word ~ii u_off u_row j s)
      then incr entries
    done
  done;
  let bb_word = Array.make (max 1 !entries) 0 in
  let bb_mask = Array.make (max 1 !entries) 0 in
  let bb_off = Array.make (ii + 1) 0 in
  let k = ref 0 in
  for s = 0 to ii - 1 do
    bb_off.(s) <- !k;
    for j = 0 to nfast - 1 do
      let word = usage_word ~ii u_off u_row j s in
      let bit =
        let c = s + u_off.(j) in
        1 lsl ((if c >= ii then c - ii else c) mod bits_per_word)
      in
      let e = ref bb_off.(s) in
      while !e < !k && bb_word.(!e) <> word do
        incr e
      done;
      if !e < !k then bb_mask.(!e) <- bb_mask.(!e) lor bit
      else begin
        bb_word.(!k) <- word;
        bb_mask.(!k) <- bit;
        incr k
      end
    done
  done;
  bb_off.(ii) <- !k;
  (bb_off, bb_word, bb_mask)

let compile ~ii ?caps (table : Reservation.t) =
  if ii < 1 then invalid_arg "Mrt.compile: ii must be >= 1";
  let packed = collapse ~ii table in
  match caps with
  | None ->
      {
        c_ii = ii;
        packed;
        c_nres = 0;
        never_fits = false;
        bb_off = [||];
        bb_word = [||];
        bb_mask = [||];
        slow = packed;
      }
  | Some caps ->
      let nres = Array.length caps in
      let wpr = words_per_row ii in
      let ntrip = Array.length packed / 3 in
      (* A usage is fast when the bit planes decide it, that is unless it
         probes a capacity-3+ resource below its brim.  One pass counts
         the fast usages; the next keeps each one's cell offset and row
         (negative for a usage that can never fit, whose words are never
         read) and copies the slow ones, in order, to [slow]. *)
      let never_fits = ref false and nfast = ref 0 in
      for i = 0 to ntrip - 1 do
        let r = packed.((3 * i) + 1) and m = packed.((3 * i) + 2) in
        if m > caps.(r) then never_fits := true;
        if caps.(r) - m < planes then incr nfast
      done;
      let nfast = !nfast in
      let u_off = Array.make nfast 0 and u_row = Array.make nfast 0 in
      let slow = Array.make (3 * (ntrip - nfast)) 0 in
      let j = ref 0 in
      for i = 0 to ntrip - 1 do
        let r = packed.((3 * i) + 1) and m = packed.((3 * i) + 2) in
        if caps.(r) - m < planes then begin
          u_off.(!j) <- packed.(3 * i);
          u_row.(!j) <- (((caps.(r) - m) * nres) + r) * wpr;
          incr j
        end
        else Array.blit packed (3 * i) slow (3 * (i - !j)) 3
      done;
      let bb_off, bb_word, bb_mask = merge_words ~ii u_off u_row in
      {
        c_ii = ii;
        packed;
        c_nres = nres;
        never_fits = !never_fits;
        bb_off;
        bb_word;
        bb_mask;
        slow;
      }

let pp_ctable ppf c =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Format.fprintf ppf
    "ii=%d packed=[%s] nres=%d never_fits=%b bb_off=[%s] bb_word=[%s] \
     bb_mask=[%s] slow=[%s]"
    c.c_ii (ints c.packed) c.c_nres c.never_fits (ints c.bb_off)
    (ints c.bb_word) (ints c.bb_mask) (ints c.slow)

let check_compiled t c =
  if c.c_ii <> t.ii then
    invalid_arg "Mrt: compiled table belongs to a different ii";
  if c.c_nres <> 0 && c.c_nres <> t.nres then
    invalid_arg "Mrt: compiled table belongs to a different machine"

(* --- the admission probe (allocation-free) ------------------------------- *)

(* Top-level recursion on purpose: a local [let rec] capturing the
   probe state compiles to a heap-allocated closure without flambda,
   and the whole point of the compiled form is a zero-allocation probe
   (asserted with Gc.allocated_bytes in the test suite). *)
let rec fits_from p len counts caps nres ii time i =
  i >= len
  ||
  let r = p.(i + 1) in
  let idx = (((time + p.(i)) mod ii) * nres) + r in
  counts.(idx) + p.(i + 2) <= caps.(r)
  && fits_from p len counts caps nres ii time (i + 3)

let rec bb_clear occ bw bm j j1 =
  j >= j1 || (occ.(bw.(j)) land bm.(j) = 0 && bb_clear occ bw bm (j + 1) j1)

let fits_c t c ~time =
  if time < 0 then invalid_arg "Mrt: negative time";
  check_compiled t c;
  if c.c_nres = 0 then
    let p = c.packed in
    fits_from p (Array.length p) t.counts t.caps t.nres t.ii time 0
  else begin
    t.bitprobes <- t.bitprobes + 1;
    (not c.never_fits)
    && (let s = time mod t.ii in
        bb_clear t.occ c.bb_word c.bb_mask c.bb_off.(s) c.bb_off.(s + 1))
    &&
    let p = c.slow in
    let len = Array.length p in
    len = 0 || fits_from p len t.counts t.caps t.nres t.ii time 0
  end

let conflicting_ops_c t ctabs ~time =
  if time < 0 then invalid_arg "Mrt: negative time";
  let ops = ref [] in
  Array.iter
    (fun c ->
      check_compiled t c;
      let p = c.packed in
      let i = ref 0 in
      while !i < Array.length p do
        let r = p.(!i + 1) in
        let idx = (((time + p.(!i)) mod t.ii) * t.nres) + r in
        if t.counts.(idx) + p.(!i + 2) > t.caps.(r) then
          ops := t.cells.(idx) @ !ops;
        i := !i + 3
      done)
    ctabs;
  List.sort_uniq compare !ops

(* Re-derive the two plane bits of cell (slot, r) from its count.
   Called after every count change; the bit planes are a pure function
   of the count matrix. *)
let sync_bits t ~slot ~r =
  let cnt = t.counts.((slot * t.nres) + r) in
  let w0 = (r * t.wpr) + (slot / bits_per_word) in
  let w1 = (t.nres * t.wpr) + w0 in
  let bit = 1 lsl (slot mod bits_per_word) in
  if cnt >= 1 then t.occ.(w0) <- t.occ.(w0) lor bit
  else t.occ.(w0) <- t.occ.(w0) land lnot bit;
  if cnt >= 2 then t.occ.(w1) <- t.occ.(w1) lor bit
  else t.occ.(w1) <- t.occ.(w1) land lnot bit

let reserve_c t ~op c ~time =
  if not (fits_c t c ~time) then
    invalid_arg "Mrt.reserve: reservation does not fit";
  let p = c.packed in
  let i = ref 0 in
  while !i < Array.length p do
    let slot = (time + p.(!i)) mod t.ii in
    let r = p.(!i + 1) in
    let idx = (slot * t.nres) + r in
    let mult = p.(!i + 2) in
    t.counts.(idx) <- t.counts.(idx) + mult;
    for _ = 1 to mult do
      t.cells.(idx) <- op :: t.cells.(idx)
    done;
    sync_bits t ~slot ~r;
    i := !i + 3
  done

let remove_once op occupants =
  let rec go = function
    | [] -> invalid_arg "Mrt.release: operation does not hold this cell"
    | x :: rest when x = op -> rest
    | x :: rest -> x :: go rest
  in
  go occupants

let release_c t ~op c ~time =
  if time < 0 then invalid_arg "Mrt: negative time";
  check_compiled t c;
  let p = c.packed in
  let i = ref 0 in
  while !i < Array.length p do
    let slot = (time + p.(!i)) mod t.ii in
    let r = p.(!i + 1) in
    let idx = (slot * t.nres) + r in
    let mult = p.(!i + 2) in
    for _ = 1 to mult do
      t.cells.(idx) <- remove_once op t.cells.(idx)
    done;
    t.counts.(idx) <- t.counts.(idx) - mult;
    sync_bits t ~slot ~r;
    i := !i + 3
  done

let occupants t ~slot ~resource = t.cells.(((slot mod t.ii) * t.nres) + resource)
