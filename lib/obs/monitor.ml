type criterion = Uc | Ec | Pc

let criterion_name = function Uc -> "uc" | Ec -> "ec" | Pc -> "pc"

let criterion_of_name s =
  match String.lowercase_ascii s with
  | "uc" -> Some Uc
  | "ec" -> Some Ec
  | "pc" -> Some Pc
  | _ -> None

type violation = {
  criterion : criterion;
  index : int;
  span : int option;
  pid : int;
  reason : string;
}

let pp_violation ppf v =
  Format.fprintf ppf "%s violated at event %d%s (p%d): %s"
    (String.uppercase_ascii (criterion_name v.criterion))
    v.index
    (match v.span with None -> "" | Some s -> Format.sprintf " span=%d" s)
    v.pid v.reason

module Make (A : Uqadt.S) = struct
  module Run = Uqadt.Run (A)
  module Cuc = Check_uc.Make (A)

  (* Minimal grow-array (Dynarray is OCaml ≥ 5.2). *)
  type 'a vec = { mutable arr : 'a array; mutable len : int }

  let vec_make () = { arr = [||]; len = 0 }

  let vec_push v x =
    if v.len = Array.length v.arr then begin
      let arr = Array.make (max 8 (2 * Array.length v.arr)) x in
      Array.blit v.arr 0 arr 0 v.len;
      v.arr <- arr
    end;
    v.arr.(v.len) <- x;
    v.len <- v.len + 1

  (* ------------------------------- PC --------------------------------- *)

  (* One monitored process p keeps the frontier of Check_pc's search:
     the set of reachable configurations of the interleaving automaton
     whose rows are p's own line plus every other process's update
     subsequence. A query on p's own line closes the frontier —
     consuming pending updates (memoized on (positions, state) exactly
     like {!Linearize.search}) and then the query; an empty result
     means no interleaving explains the read — the first PC-violating
     event. An ω read must additionally consume every update fed so
     far.

     The frontier is complete only for the rows it was computed
     against: when another process's update arrives, a witness
     interleaving may weave it {e before} an already-explained query
     (a [deq] woven before the enqueues a read observed, say), reaching
     accepting configurations the old frontier cannot. So a row growth
     marks the frontier dirty, and the next own query rebuilds it from
     scratch against the current rows — except for a recorded ω read,
     which is re-checked eagerly on every later update (an update is
     the only event that can turn a passing prefix into a failing one,
     and the violation must be reported at exactly that event). *)

  type own = Ou of A.update | Oq of A.query * A.output * bool  (** ω? *)

  type cfg = { pos : int array; state : A.state }

  type pc_proc = {
    p : int;
    own : own vec;
    mutable frontier : cfg list;
    mutable dirty : bool;
        (** rows grew since [frontier] was computed; rebuild before use *)
    mutable pre_omega : (int * A.query * A.output) option;
        (** journal index and reading of the recorded ω, for re-checks *)
  }

  type pc_state = { rows : A.update vec array; procs : pc_proc array }

  type uc_state = {
    steps : (A.update, A.query, A.output) History.step list ref array;
        (** updates and ω reads only, newest first *)
    mutable pairs : (A.query * A.output) list;
    mutable total : int;  (** updates fed *)
    mutable lin_state : A.state;  (** fold of updates in arrival order *)
    mutable witness : (A.state * int) option;
        (** a state satisfying every pair, final state of a
            program-order-respecting linearization of the first [k] fed
            updates *)
  }

  type ec_state = {
    mutable ec_pairs : (A.query * A.output) list;
    mutable last_distinct : (float * int) option;
    mutable peak_distinct : int;
  }

  type t = {
    n : int;
    criteria : criterion list;
    pc : pc_state option;
    uc : uc_state option;
    ec : ec_state option;
    mutable violations : violation list;  (* newest first *)
    mutable events_seen : int;
  }

  let create ~n ~criteria =
    let criteria = List.sort_uniq compare criteria in
    let has c = List.mem c criteria in
    {
      n;
      criteria;
      pc =
        (if has Pc then
           Some
             {
               rows = Array.init n (fun _ -> vec_make ());
               procs =
                 Array.init n (fun p ->
                     {
                       p;
                       own = vec_make ();
                       frontier =
                         [ { pos = Array.make n 0; state = A.initial } ];
                       dirty = false;
                       pre_omega = None;
                     });
             }
         else None);
      uc =
        (if has Uc then
           Some
             {
               steps = Array.init n (fun _ -> ref []);
               pairs = [];
               total = 0;
               lin_state = A.initial;
               witness = None;
             }
         else None);
      ec =
        (if has Ec then
           Some { ec_pairs = []; last_distinct = None; peak_distinct = 0 }
         else None);
      violations = [];
      events_seen = 0;
    }

  let violations t = List.rev t.violations

  let first_violation t =
    match List.rev t.violations with [] -> None | v :: _ -> Some v

  let clean t = t.violations = []

  let violated t c =
    List.exists (fun v -> v.criterion = c) t.violations

  let report t v = t.violations <- v :: t.violations

  let events_seen t = t.events_seen

  let divergence t =
    match t.ec with
    | None -> (None, 0)
    | Some ec -> (ec.last_distinct, ec.peak_distinct)

  (* Closure of [from] under consuming pending updates, then the query
     [(q, o)] sitting at position [qpos] of [pr]'s own line; [omega]
     requires every fed update consumed first. Returns the deduped
     post-query frontier. *)
  let pc_close t st pr ~qpos ~omega ~q ~o ~from =
    let n = t.n in
    let visited : (int list, A.state list ref) Hashtbl.t = Hashtbl.create 64 in
    let seen pos state =
      let key = Array.to_list pos in
      match Hashtbl.find_opt visited key with
      | None ->
        Hashtbl.add visited key (ref [ state ]);
        false
      | Some states ->
        if List.exists (A.equal_state state) !states then true
        else begin
          states := state :: !states;
          false
        end
    in
    let out = ref [] in
    let add_out pos state =
      if
        not
          (List.exists
             (fun c -> c.pos = pos && A.equal_state c.state state)
             !out)
      then out := { pos; state } :: !out
    in
    let rec go c =
      if not (seen c.pos c.state) then begin
        if c.pos.(pr.p) = qpos then begin
          let ready =
            (not omega)
            || Array.for_all Fun.id
                 (Array.init n (fun r ->
                      r = pr.p || c.pos.(r) = st.rows.(r).len))
          in
          if ready && A.equal_output (A.eval c.state q) o then begin
            let pos = Array.copy c.pos in
            pos.(pr.p) <- qpos + 1;
            add_out pos c.state
          end
        end;
        for r = 0 to n - 1 do
          if r = pr.p then begin
            if c.pos.(r) < qpos then
              match pr.own.arr.(c.pos.(r)) with
              | Ou u ->
                let pos = Array.copy c.pos in
                pos.(r) <- c.pos.(r) + 1;
                go { pos; state = A.apply c.state u }
              | Oq _ ->
                (* Every earlier own query was consumed before the
                   frontier advanced past it. *)
                ()
          end
          else if c.pos.(r) < st.rows.(r).len then begin
            let u = st.rows.(r).arr.(c.pos.(r)) in
            let pos = Array.copy c.pos in
            pos.(r) <- c.pos.(r) + 1;
            go { pos; state = A.apply c.state u }
          end
        done
      end
    in
    List.iter go from;
    !out

  (* Rebuild [pr]'s frontier from scratch against the {e current} rows:
     close every recorded own query in order, each over the full rows.
     [None] when some closure empties — only possible for an ω entry,
     whose completeness requirement can absorb a new update no weaving
     satisfies; a plain query once explained stays explained (growth
     only adds interleavings). *)
  let pc_rebuild t st pr =
    let frontier =
      ref [ { pos = Array.make t.n 0; state = A.initial } ]
    in
    let ok = ref true in
    for k = 0 to pr.own.len - 1 do
      if !ok then
        match pr.own.arr.(k) with
        | Ou _ -> ()
        | Oq (q, o, omega) -> (
          match pc_close t st pr ~qpos:k ~omega ~q ~o ~from:!frontier with
          | [] -> ok := false
          | out -> frontier := out)
    done;
    pr.dirty <- false;
    if !ok then Some !frontier else None

  (* ------------------------------- UC --------------------------------- *)

  let pairs_hold pairs s =
    List.for_all (fun (q, o) -> A.equal_output (A.eval s q) o) pairs

  let uc_prefix_history uc =
    History.make (Array.to_list (Array.map (fun r -> List.rev !r) uc.steps))

  (* Full fallback: Check_uc on the prefix fed so far. On success the
     witness's final state is memoized so later events retry it in O(1)
     before searching again. *)
  let uc_search uc =
    match Cuc.witness (uc_prefix_history uc) with
    | Some updates ->
      uc.witness <- Some (Run.final_state updates, uc.total);
      true
    | None -> false

  let uc_on_update t uc ~pid ~index ~span u =
    ignore span;
    uc.steps.(pid) := History.U u :: !(uc.steps.(pid));
    uc.total <- uc.total + 1;
    uc.lin_state <- A.apply uc.lin_state u;
    if uc.pairs <> [] then begin
      (* The new update is the latest event of [pid], so appending it to
         any existing witness still extends the program order. *)
      let extended =
        match uc.witness with
        | Some (s, k) when k = uc.total - 1 ->
          let s' = A.apply s u in
          if pairs_hold uc.pairs s' then begin
            uc.witness <- Some (s', uc.total);
            true
          end
          else false
        | _ -> false
      in
      if (not extended) && not (uc_search uc) then
        report t
          {
            criterion = Uc;
            index;
            span;
            pid;
            reason =
              Format.asprintf
                "update %a invalidates all linearizations: no update order \
                 extending program order satisfies the %d ω read(s)"
                A.pp_update u (List.length uc.pairs);
          }
    end

  let uc_on_omega t uc ~pid ~index ~span q o =
    uc.steps.(pid) := History.Qw (q, o) :: !(uc.steps.(pid));
    uc.pairs <- (q, o) :: uc.pairs;
    let fast =
      (match uc.witness with
      | Some (s, k) when k = uc.total ->
        A.equal_output (A.eval s q) o
      | _ -> false)
      ||
      if pairs_hold uc.pairs uc.lin_state then begin
        uc.witness <- Some (uc.lin_state, uc.total);
        true
      end
      else false
    in
    if (not fast) && not (uc_search uc) then
      report t
        {
          criterion = Uc;
          index;
          span;
          pid;
          reason =
            Format.asprintf
              "no update linearization extending program order satisfies \
               the %d ω read(s) (latest: %a -> %a)"
              (List.length uc.pairs) A.pp_query q A.pp_output o;
        }

  (* ----------------------------- feeding ------------------------------ *)

  let on_update t ~pid ~index ~span u =
    t.events_seen <- t.events_seen + 1;
    (match t.pc with
    | Some st when not (violated t Pc) ->
      vec_push st.rows.(pid) u;
      vec_push st.procs.(pid).own (Ou u);
      (* The lengthened row invalidates every other process's frontier
         (a witness may weave the new update before an old query); a
         late update is also the only event that can take an accepted
         ω read's witness away, so recorded ωs are re-checked now. *)
      Array.iter
        (fun pr ->
          if pr.p <> pid then
            match pr.pre_omega with
            | Some (oidx, _, _) when not (violated t Pc) -> (
              match pc_rebuild t st pr with
              | Some front -> pr.frontier <- front
              | None ->
                report t
                  {
                    criterion = Pc;
                    index;
                    span;
                    pid;
                    reason =
                      Format.asprintf
                        "update %a leaves p%d's ω read (event %d) without \
                         a pipelined witness"
                        A.pp_update u pr.p oidx;
                  })
            | _ -> pr.dirty <- true)
        st.procs
    | _ -> ());
    (match t.uc with
    | Some uc when not (violated t Uc) -> uc_on_update t uc ~pid ~index ~span u
    | _ -> ())

  let on_query t ~pid ~index ~span ~omega q o =
    t.events_seen <- t.events_seen + 1;
    (match t.pc with
    | Some st when not (violated t Pc) ->
      let pr = st.procs.(pid) in
      let stale = pr.dirty in
      vec_push pr.own (Oq (q, o, omega));
      if omega then pr.pre_omega <- Some (index, q, o);
      let out =
        if stale then
          (* Rows grew since the frontier was computed: rebuild against
             the current rows (the new query included). *)
          match pc_rebuild t st pr with None -> [] | Some front -> front
        else
          pc_close t st pr ~qpos:(pr.own.len - 1) ~omega ~q ~o
            ~from:pr.frontier
      in
      if out = [] then
        report t
          {
            criterion = Pc;
            index;
            span;
            pid;
            reason =
              Format.asprintf
                "no interleaving of p%d's line with the other processes' \
                 updates explains %s%a -> %a"
                pid
                (if omega then "ω read " else "read ")
                A.pp_query q A.pp_output o;
          }
      else pr.frontier <- out
    | _ -> ());
    if omega then begin
      (match t.uc with
      | Some uc when not (violated t Uc) ->
        uc_on_omega t uc ~pid ~index ~span q o
      | _ -> ());
      match t.ec with
      | Some ec when not (violated t Ec) ->
        ec.ec_pairs <- (q, o) :: ec.ec_pairs;
        if not (A.satisfiable ec.ec_pairs) then
          report t
            {
              criterion = Ec;
              index;
              span;
              pid;
              reason =
                Format.asprintf
                  "the %d ω read(s) are not jointly satisfiable by any \
                   state (latest: %a -> %a)"
                  (List.length ec.ec_pairs)
                  A.pp_query q A.pp_output o;
            }
      | _ -> ()
    end

  let on_probe t ~time ~distinct =
    match t.ec with
    | None -> ()
    | Some ec ->
      ec.last_distinct <- Some (time, distinct);
      if distinct > ec.peak_distinct then ec.peak_distinct <- distinct
end
