type t = {
  length : int;
  workers : int;
  next : int Atomic.t;
  chunks : int Atomic.t;
}

let create ~workers ~length =
  { length; workers = max 1 workers; next = Atomic.make 0; chunks = Atomic.make 0 }

(* The guided chunk: a [1 / (2 * workers)] share of what remains, at
   least one job. *)
let chunk_size t ~remaining = min remaining (max 1 (remaining / (2 * t.workers)))

let rec take t =
  let lo = Atomic.get t.next in
  if lo >= t.length then None
  else
    let hi = lo + chunk_size t ~remaining:(t.length - lo) in
    if Atomic.compare_and_set t.next lo hi then begin
      Atomic.incr t.chunks;
      Some (lo, hi)
    end
    else take t

let chunks_taken t = Atomic.get t.chunks
