(* Clocks, order statistics and child-process accounting.

   Every timing in the benchmark comes from the system-wide monotonic
   clock in nanoseconds, so a span measured in this process and a
   timestamp written by a child (the compile child's first decode) are
   comparable, and per-loop latencies of a few microseconds keep all
   their digits. *)

let now_ns () = Monotonic_clock.now ()
let seconds_between t0 t1 = Int64.to_float (Int64.sub t1 t0) *. 1e-9
let since t0 = seconds_between t0 (now_ns ())

(* --- machine speed ----------------------------------------------------------- *)

(* A small virtual machine's speed drifts: on the 2-vCPU box this
   benchmark was defined on, CPU time for identical work rose by up to
   35% for minutes at a time, and the spread of raw timings over ten
   runs reached 49%.  Timings are therefore reported at nominal speed:
   a fixed kernel that uses only the standard library (so no change to
   the program can move it) is timed next to each measurement, and the
   measurement is divided by [slowdown], the kernel's wall time over
   its time on a quiet machine. *)

let nominal_calibration_s = 0.05

let calibration_s () =
  let t0 = now_ns () in
  let rng = Random.State.make [| 42 |] in
  let a = Array.init 100_000 (fun _ -> Random.State.int rng 1_000_000) in
  Array.sort compare a;
  let h = Hashtbl.create 1024 in
  Array.iter (fun x -> Hashtbl.replace h (x land 65535) x) a;
  let l = List.sort compare (List.init 50_000 (fun i -> i * 7919 mod 100_003)) in
  ignore (Sys.opaque_identity (h, l));
  since t0

let calibration_runs = 2

(* The body of a calibration child: the kernel's times on one line. *)
let calibration_child () =
  print_endline
    (String.concat " "
       (List.init calibration_runs (fun _ -> Printf.sprintf "%.9f" (calibration_s ()))))

(* The kernel's times in [cpus] calibration children ([self calibrate])
   started together: work that keeps two CPUs busy slows with the load
   on both.  On the 2-vCPU VM, a two-worker batch's time correlated at
   0.79 with the kernel run on two CPUs at once and at 0.43 with one
   kernel; dividing by the one kernel made it noisier. *)
let calibration_samples ~self ~cpus =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let children =
    List.init cpus (fun _ ->
        let r, w = Unix.pipe ~cloexec:true () in
        let pid =
          Fun.protect
            ~finally:(fun () -> Unix.close w)
            (fun () -> Unix.create_process self [| self; "calibrate" |] devnull w devnull)
        in
        (pid, Unix.in_channel_of_descr r))
  in
  Unix.close devnull;
  let samples =
    List.concat_map
      (fun (pid, ic) ->
        let line = try input_line ic with End_of_file -> "" in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        List.filter_map float_of_string_opt (String.split_on_char ' ' line))
      children
  in
  if List.length samples <> cpus * calibration_runs then failwith "calibration child failed";
  samples

(* [with_slowdown ~self ~cpus f] is [(f (), slowdown)]: the median of
   the kernel's times just before and just after [f], on as many CPUs
   as [f] keeps busy, over its nominal time. *)
let with_slowdown ~self ~cpus f =
  let before = calibration_samples ~self ~cpus in
  let r = f () in
  let after = calibration_samples ~self ~cpus in
  let s = Array.of_list (before @ after) in
  Array.sort Float.compare s;
  let n = Array.length s in
  (r, (s.((n - 1) / 2) +. s.(n / 2)) /. 2. /. nominal_calibration_s)

(* Process creation slows in phases of its own, which the kernel above
   does not see: a start-up of a few milliseconds rose by 30% for
   minutes while [slowdown] held.  Spawning [/bin/true] (outside the
   repository, so no change to the program can move it) measures that
   speed; next to a probe it takes about 0.8 ms on a quiet box. *)
let nominal_spawn_s = 0.0008

let spawn_reference_s () =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now_ns () in
  let pid = Unix.create_process "/bin/true" [| "/bin/true" |] devnull devnull devnull in
  ignore (Unix.waitpid [] pid);
  let s = since t0 in
  Unix.close devnull;
  s

(* --- order statistics ------------------------------------------------------- *)

let sorted_copy a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile, [q] in [0, 1]; nan without samples. *)
let percentile a q =
  Option.value ~default:nan (Ims_obs.Profile.percentile (Array.to_list a) q)

let median a =
  let s = sorted_copy a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* First and third quartile by the "exclusive" method of Python's
   [statistics.quantiles(data, n=4)], so the spreads this program
   prints match what a Python script computes from the same values.
   One sample is its own quartiles. *)
let quartiles a =
  let s = sorted_copy a in
  let ld = Array.length s in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (s.(0), s.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

(* --- files ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_lines path =
  match read_file path with
  | "" -> [||]
  | s ->
      let s =
        if s.[String.length s - 1] = '\n' then String.sub s 0 (String.length s - 1)
        else s
      in
      Array.of_list (String.split_on_char '\n' s)

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let remove_if_exists path = if Sys.file_exists path then Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* --- child processes ------------------------------------------------------- *)

(* The lines of a /proc file (which reports its size as 0, so it is read
   to end of file); [] once the process is gone. *)
let proc_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception (End_of_file | Sys_error _) -> List.rev acc
      in
      let lines = go [] in
      close_in_noerr ic;
      lines

(* --- CPU affinity ------------------------------------------------------------ *)

(* The CPUs this process may run on, as taskset(1) writes them ("0-1"). *)
let cpus_allowed () =
  List.find_map
    (fun line ->
      match String.split_on_char ':' line with
      | [ "Cpus_allowed_list"; cpus ] -> Some (String.trim cpus)
      | _ -> None)
    (proc_lines "/proc/self/status")

(* Confine every thread of this process, and the children it starts
   from now on, to [cpus]; false when taskset(1) is missing or fails. *)
let taskset cpus =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let argv = [| "taskset"; "-a"; "-p"; "-c"; cpus; string_of_int (Unix.getpid ()) |] in
  let ok =
    match Unix.create_process "taskset" argv devnull devnull devnull with
    | pid -> snd (Unix.waitpid [] pid) = Unix.WEXITED 0
    | exception Unix.Unix_error _ -> false
  in
  Unix.close devnull;
  ok

(* [on_one_cpu f] runs [f] with this process and its new children on
   the last CPU it may use, then gives the process back all of them.
   A closed loop of client and daemon is much steadier so: on the
   2-vCPU VM this benchmark was defined on, the spread of the serve
   workload's loops/s over seven runs of one seed fell from 0.085 to
   0.027.  Without taskset, [f] runs unconfined. *)
let on_one_cpu f =
  match cpus_allowed () with
  | None -> f ()
  | Some all -> (
      let last =
        String.split_on_char ',' all |> List.rev |> List.hd |> String.split_on_char '-'
        |> List.rev |> List.hd
      in
      match taskset last with
      | false -> f ()
      | true -> Fun.protect ~finally:(fun () -> ignore (taskset all)) f)

(* VmHWM (peak resident set) of one live process, in KiB. *)
let vm_hwm_kb pid =
  List.find_map
    (fun line ->
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Option.some
      else None)
    (proc_lines (Printf.sprintf "/proc/%d/status" pid))

(* Direct children of [pid], over all of its threads (OCaml domains are
   threads, and any of them may have forked). *)
let children pid =
  let tasks = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir tasks with
  | exception Sys_error _ -> []
  | tids ->
      Array.to_list tids
      |> List.concat_map (fun tid ->
             proc_lines (Printf.sprintf "%s/%s/children" tasks tid)
             |> List.concat_map (String.split_on_char ' ')
             |> List.filter_map int_of_string_opt)

type proc = {
  pid : int;
  started : int64;
  cpu0 : float;
  peaks : (int, int) Hashtbl.t;
      (* pid -> max VmHWM seen, KiB; written by [poller] only, read
         after it is joined *)
  stop : bool Atomic.t;
  poller : Thread.t;
}

type finished = {
  wall_s : float;  (** Spawn to reaped exit. *)
  cpu_s : float;  (** User + system time of the child and its reaped descendants. *)
  rss_mb : float;  (** Sum over the process tree of each process's peak RSS. *)
  code : int;  (** Exit code; 128 + signal number when killed. *)
}

let children_cpu () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* Poll the process tree every 20 ms, keeping each process's peak: a
   worker that exits between two polls keeps the peak last read. *)
let poll_tree pid peaks stop =
  let rec walk p =
    (match vm_hwm_kb p with
    | Some kb ->
        let prev = Option.value ~default:0 (Hashtbl.find_opt peaks p) in
        Hashtbl.replace peaks p (max prev kb)
    | None -> ());
    List.iter walk (children p)
  in
  while not (Atomic.get stop) do
    walk pid;
    Thread.delay 0.02
  done

(* [spawn argv] starts [argv.(0)] with stdin from /dev/null and both
   output streams appended to [log]; the benchmark waits for each child
   with {!wait} before it returns. *)
let spawn ~log argv =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let cpu0 = children_cpu () in
  let started = now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close devnull;
        Unix.close out)
      (fun () -> Unix.create_process argv.(0) argv devnull out out)
  in
  let peaks = Hashtbl.create 8 in
  let stop = Atomic.make false in
  let poller = Thread.create (fun () -> poll_tree pid peaks stop) () in
  { pid; started; cpu0; peaks; stop; poller }

let wait p =
  let rec reap () =
    match Unix.waitpid [] p.pid with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | _, status -> status
  in
  let status = reap () in
  let wall_s = since p.started in
  let cpu_s = children_cpu () -. p.cpu0 in
  Atomic.set p.stop true;
  Thread.join p.poller;
  let kb = Hashtbl.fold (fun _ v acc -> acc + v) p.peaks 0 in
  let code =
    match status with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> 128 + abs s
  in
  { wall_s; cpu_s; rss_mb = float_of_int kb /. 1024.; code }

let run ~log argv = wait (spawn ~log argv)
