type error = { exn : string; backtrace : string }

type 'a t =
  | Done of 'a
  | Failed of error
  | Timed_out of { elapsed : float; limit : float }
  | Cancelled of { elapsed : float; limit : float }

let is_done = function
  | Done _ -> true
  | Failed _ | Timed_out _ | Cancelled _ -> false

let get ?job o =
  let where =
    match job with None -> "job" | Some i -> Printf.sprintf "job %d" i
  in
  match o with
  | Done v -> v
  | Failed e -> failwith (Printf.sprintf "%s failed: %s" where e.exn)
  | Timed_out { elapsed; limit } ->
      failwith
        (Printf.sprintf "%s timed out: %.3fs over the %.3fs limit" where
           elapsed limit)
  | Cancelled { elapsed; limit } ->
      failwith
        (if limit = infinity then
           Printf.sprintf "%s cancelled after %.3fs" where elapsed
         else
           Printf.sprintf "%s cancelled: %.3fs deadline preempted it at %.3fs"
             where limit elapsed)

let status = function
  | Done _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timed_out"
  | Cancelled _ -> "cancelled"
