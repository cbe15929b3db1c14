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
   capacity vector keeps, per such usage, its cell offset and the first
   word of the plane row it probes: at issue slot [s = time mod ii] the
   usage's cell is [s + offset], wrapped once, and its word and bit are
   a shift and a mask away.  Every walk reduces the time modulo [ii]
   once and wraps each cell the same way.  The compiled form is O(usages),
   whatever the II, so compiling a loop's tables costs no more at II 100
   than at II 2.  Usages with [c - m >= 2] (a capacity-3+ resource
   probed below its brim) fall back to the count walk, and a usage with
   [m > c] can never fit at any time.  Compiling without capacities
   yields a ctable that probes purely by count walk, byte-identical to
   the historical behaviour. *)

(* 32 cells per word of [occ]: a power of two, so a cell's word and bit
   are a shift and a mask. *)
let word_shift = 5
let word_mask = (1 lsl word_shift) - 1
let words_per_row ii = (ii + word_mask) lsr word_shift

(* The slot of a cell [off] slots after slot [s]; both are below [ii]. *)
let wrap ii c = if c >= ii then c - ii else c

(* [time mod ii] for [time >= 0].  Most schedule times lie in the first
   two stages (seven in ten on the compile corpus), and there the slot
   needs no integer division, which costs tens of cycles a probe. *)
let slot_of ii time =
  if time < ii then time else if time < 2 * ii then time - ii else time mod ii

(* Number of bit planes carried by [occ]: plane p tracks count >= p+1.
   Two planes cover probes on resources of capacity <= 2 at any
   multiplicity, and capacity > 2 at multiplicity >= c - 1. *)
let planes = 2

type ctable = {
  c_ii : int;
  packed : int array;
      (* all (slot_offset, resource, mult) triples, stride 3; the
         reserve/release/conflict walk *)
  c_nres : int;  (* 0 = compiled without capacities: no bit-plane data *)
  never_fits : bool;  (* some usage has mult > cap: no time ever fits *)
  probe : int array;
      (* what [fits_c] reads: the usages the bit planes decide, as
         (slot_offset, first word of the probed plane row) pairs, up to
         [fast_end]; then the triples they cannot decide, stride 3.
         Compiled without capacities, all of [packed]. *)
  fast_end : int;
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
        probe = packed;
        fast_end = 0;
      }
  | Some caps ->
      let nres = Array.length caps in
      let wpr = words_per_row ii in
      let ntrip = Array.length packed / 3 in
      (* A usage is fast when the bit planes decide it, that is unless it
         probes a capacity-3+ resource below its brim.  One pass counts
         the fast usages; the next writes each one's cell offset and the
         first word of the plane row it probes (negative for a usage that
         can never fit, whose words are never read) to the front of
         [probe], and copies the slow ones, in order, behind them. *)
      let never_fits = ref false and nfast = ref 0 in
      for i = 0 to ntrip - 1 do
        let r = packed.((3 * i) + 1) and m = packed.((3 * i) + 2) in
        if m > caps.(r) then never_fits := true;
        if caps.(r) - m < planes then incr nfast
      done;
      let fast_end = 2 * !nfast in
      let probe = Array.make (fast_end + (3 * (ntrip - !nfast))) 0 in
      let j = ref 0 in
      for i = 0 to ntrip - 1 do
        let r = packed.((3 * i) + 1) and m = packed.((3 * i) + 2) in
        if caps.(r) - m < planes then begin
          probe.(2 * !j) <- packed.(3 * i);
          probe.((2 * !j) + 1) <- (((caps.(r) - m) * nres) + r) * wpr;
          incr j
        end
        else Array.blit packed (3 * i) probe (fast_end + (3 * (i - !j))) 3
      done;
      {
        c_ii = ii;
        packed;
        c_nres = nres;
        never_fits = !never_fits;
        probe;
        fast_end;
      }

let pp_ctable ppf c =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Format.fprintf ppf
    "ii=%d packed=[%s] nres=%d never_fits=%b probe=[%s] fast_end=%d" c.c_ii
    (ints c.packed) c.c_nres c.never_fits (ints c.probe) c.fast_end

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
let rec fits_from p len counts caps nres ii s i =
  i >= len
  ||
  let r = p.(i + 1) in
  let idx = (wrap ii (s + p.(i)) * nres) + r in
  counts.(idx) + p.(i + 2) <= caps.(r)
  && fits_from p len counts caps nres ii s (i + 3)

(* Whether every fast usage from pair [i] up to [fast_end] finds its
   plane bit clear at issue slot [s]. *)
let rec fast_clear occ f fast_end ii s i =
  i >= fast_end
  ||
  let c = wrap ii (s + f.(i)) in
  occ.(f.(i + 1) + (c lsr word_shift)) land (1 lsl (c land word_mask)) = 0
  && fast_clear occ f fast_end ii s (i + 2)

let fits_c t c ~time =
  if time < 0 then invalid_arg "Mrt: negative time";
  check_compiled t c;
  if c.c_nres <> 0 then t.bitprobes <- t.bitprobes + 1;
  let p = c.probe and s = slot_of t.ii time in
  (not c.never_fits)
  && fast_clear t.occ p c.fast_end t.ii s 0
  && fits_from p (Array.length p) t.counts t.caps t.nres t.ii s c.fast_end

(* Top-level recursion for the same reason as [fits_from]. *)
let rec first_fit_from t ctabs ~time k =
  if k >= Array.length ctabs then -1
  else if fits_c t ctabs.(k) ~time then k
  else first_fit_from t ctabs ~time (k + 1)

let first_fit t ctabs ~time = first_fit_from t ctabs ~time 0

let conflicting_ops_c t ctabs ~time =
  if time < 0 then invalid_arg "Mrt: negative time";
  let ops = ref [] and s = slot_of t.ii time in
  Array.iter
    (fun c ->
      check_compiled t c;
      let p = c.packed in
      let i = ref 0 in
      while !i < Array.length p do
        let r = p.(!i + 1) in
        let idx = (wrap t.ii (s + p.(!i)) * t.nres) + r in
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
  let w0 = (r * t.wpr) + (slot lsr word_shift) in
  let w1 = (t.nres * t.wpr) + w0 in
  let bit = 1 lsl (slot land word_mask) in
  if cnt >= 1 then t.occ.(w0) <- t.occ.(w0) lor bit
  else t.occ.(w0) <- t.occ.(w0) land lnot bit;
  if cnt >= 2 then t.occ.(w1) <- t.occ.(w1) lor bit
  else t.occ.(w1) <- t.occ.(w1) land lnot bit

let reserve_c t ~op c ~time =
  if not (fits_c t c ~time) then
    invalid_arg "Mrt.reserve: reservation does not fit";
  let p = c.packed and s = slot_of t.ii time in
  let i = ref 0 in
  while !i < Array.length p do
    let slot = wrap t.ii (s + p.(!i)) in
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
  let p = c.packed and s = slot_of t.ii time in
  let i = ref 0 in
  while !i < Array.length p do
    let slot = wrap t.ii (s + p.(!i)) in
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
