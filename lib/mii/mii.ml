open Ims_ir
open Ims_obs

type t = { resmii : int; recmii : int; mii : int }

let compute ?counters ?(trace = Trace.null) ddg =
  let resmii =
    Trace.with_span trace "mii.resmii" (fun () -> Resmii.compute ?counters ddg)
  in
  let recmii =
    Trace.with_span trace "mii.recmii" (fun () ->
        Recmii.by_mindist ?counters ddg)
  in
  { resmii; recmii; mii = max resmii recmii }

let schedule_length_lower_bound ?solver ddg ~ii ~acyclic_length =
  let md =
    match solver with
    | Some s -> Mindist.solve s ~ii
    | None -> Mindist.full ddg ~ii
  in
  max (Mindist.get md Ddg.start (Ddg.stop ddg)) acyclic_length

let pp ppf t =
  Format.fprintf ppf "ResMII=%d RecMII=%d MII=%d" t.resmii t.recmii t.mii
