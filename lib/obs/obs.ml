module Json = Json
module Registry = Registry
module Span = Span
module Profile = Profile
module Trace_export = Trace_export
module Journal = Journal
module Monitor = Monitor
module Series = Series
module Alert = Alert
module Recorder = Recorder

type replica = { pid : int; profile : Profile.t }

type t = {
  registry : Registry.t;
  spans : Span.t;
  mutable replicas : replica list;
  mutable divergence : (float * int) list;
  mutable journal : Journal.t option;
}

let create ?journal () =
  {
    registry = Registry.create ();
    spans = Span.create ();
    replicas = [];
    divergence = [];
    journal;
  }

let replica t pid =
  match List.find_opt (fun r -> r.pid = pid) t.replicas with
  | Some r -> r
  | None ->
    let r = { pid; profile = Profile.create () } in
    t.replicas <- r :: t.replicas;
    r

let adopt t (r : replica) =
  t.replicas <- r :: List.filter (fun x -> x.pid <> r.pid) t.replicas

let make_replica pid = { pid; profile = Profile.create () }

let record_divergence t ~time ~distinct =
  t.divergence <- (time, distinct) :: t.divergence

let divergence_series t = List.rev t.divergence

let pid_labels pid = [ ("pid", string_of_int pid) ]

let finalize t ~live =
  (* Visibility latency per origin replica; updates that never became
     visible at every live replica are counted, not averaged in. *)
  if Span.count t.spans > 0 then begin
    let invisible = Registry.counter t.registry "updates_invisible" in
    List.iter
      (fun ((info : Span.info), lat) ->
        match lat with
        | Some lat ->
          Registry.observe
            (Registry.hist t.registry ~labels:(pid_labels info.origin)
               "visibility_latency")
            lat
        | None -> Registry.inc invisible)
      (Span.visibility t.spans ~live)
  end;
  List.iter
    (fun r ->
      List.iter
        (fun (name, v) ->
          Registry.inc ~by:v
            (Registry.counter t.registry ~labels:(pid_labels r.pid) name))
        (Profile.to_rows r.profile))
    t.replicas;
  match t.divergence with
  | [] -> ()
  | (_, distinct) :: _ ->
    Registry.set (Registry.gauge t.registry "divergence_final")
      (float_of_int distinct);
    Registry.inc
      ~by:(List.length t.divergence)
      (Registry.counter t.registry "probes_taken")
