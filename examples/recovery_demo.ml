(* Crash recovery from a durable log snapshot.

   Section VII.C defends the universal construction's space cost by
   noting the log is what systems persist anyway. This example closes
   the loop: a replica snapshots its log, "crashes", is rebuilt from the
   snapshot, replays the traffic it missed, and rejoins with the same
   agreed linearization as everyone else.

   Run with: dune exec examples/recovery_demo.exe *)

module Bank = Generic.Make (Bank_spec)
module Store = Persist.Over (Bank) (Update_codec.For_bank)

(* Three replicas wired synchronously; deliveries to a "down" replica are
   held in its mailbox. *)
let n = 3

let replicas : Bank.t option array = Array.make n None

let down = Array.make n false

let mailbox : (int * Bank.message) Queue.t array = Array.init n (fun _ -> Queue.create ())

let ctx pid : Bank.message Protocol.ctx =
  {
    Protocol.pid;
    n;
    now = (fun () -> 0.0);
    send = (fun ~dst:_ _ -> ());
    broadcast =
      (fun msg ->
        Array.iteri
          (fun dst r ->
            if dst <> pid then begin
              if down.(dst) then Queue.add (pid, msg) mailbox.(dst)
              else match r with Some r -> Bank.receive r ~src:pid msg | None -> ()
            end)
          replicas);
    broadcast_batch =
      (fun msgs ->
        List.iter
          (fun msg ->
            Array.iteri
              (fun dst r ->
                if dst <> pid then begin
                  if down.(dst) then Queue.add (pid, msg) mailbox.(dst)
                  else
                    match r with Some r -> Bank.receive r ~src:pid msg | None -> ()
                end)
              replicas)
          msgs);
    set_timer = (fun ~delay:_ _ -> ());
    count_replay = (fun _ -> ());
    obs = None;
  }

let replica pid = Option.get replicas.(pid)

let balance pid =
  let out = ref 0 in
  Bank.query (replica pid) (Bank_spec.Balance 0) ~on_result:(fun v -> out := v);
  !out

let () =
  Array.iteri (fun pid _ -> replicas.(pid) <- Some (Bank.create (ctx pid))) replicas;
  (* Normal operation. *)
  Bank.update (replica 0) (Bank_spec.Deposit (0, 500)) ~on_done:ignore;
  Bank.update (replica 1) (Bank_spec.Withdraw (0, 120)) ~on_done:ignore;
  Format.printf "all replicas see balance %d / %d / %d@." (balance 0) (balance 1) (balance 2);

  (* Node 2 snapshots its log and crashes. *)
  let snapshot = Store.snapshot (replica 2) in
  down.(2) <- true;
  Format.printf "node 2 crashed; snapshot is %d bytes@." (String.length snapshot);

  (* The world moves on without it. *)
  Bank.update (replica 0) (Bank_spec.Deposit (0, 40)) ~on_done:ignore;
  Bank.update (replica 1) (Bank_spec.Transfer (0, 1, 100)) ~on_done:ignore;
  Format.printf "survivors see balance %d / %d (node 2 is dark)@." (balance 0) (balance 1);

  (* Recovery: rebuild node 2 from its snapshot, then drain the traffic
     it missed. *)
  replicas.(2) <- Some (Bank.create (ctx 2));
  Store.restore (replica 2) snapshot;
  down.(2) <- false;
  Format.printf "node 2 restored from snapshot: balance %d (pre-crash state)@." (balance 2);
  Queue.iter (fun (src, msg) -> Bank.receive (replica 2) ~src msg) mailbox.(2);
  Queue.clear mailbox.(2);
  Format.printf "after catching up: %d / %d / %d@." (balance 0) (balance 1) (balance 2);

  (* And it is a first-class participant again. *)
  Bank.update (replica 2) (Bank_spec.Deposit (0, 5)) ~on_done:ignore;
  Format.printf "node 2 writes again: %d / %d / %d@." (balance 0) (balance 1) (balance 2);
  let agreed =
    List.for_all (fun pid -> balance pid = balance 0) [ 1; 2 ]
  in
  Format.printf "linearizations agree: %b@." agreed
