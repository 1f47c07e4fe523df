module Policy = Tsan11rec.Policy
module Conf = Tsan11rec.Conf
module World = T11r_env.World
open T11r_apps

type t = {
  w_name : string;
  w_desc : string;
  w_policy : Policy.t;
  w_instance : World.t -> unit -> T11r_vm.Api.program;
}

(* Workloads that need a connected socket used to smuggle the fd
   through a global ref set during setup — shared mutable state that
   silently corrupts runs once campaigns shard across domains. The fd
   now flows through the closure: [w_instance world] performs the
   setup and returns a builder that captures whatever setup created. *)

let pure build _world () = build ()
let with_setup setup build world =
  setup world;
  fun () -> build ()

let litmus_entries =
  List.map
    (fun (e : T11r_litmus.Registry.entry) ->
      {
        w_name = e.name;
        w_desc = e.description;
        w_policy = Policy.default;
        w_instance = pure e.build;
      })
    T11r_litmus.Registry.all

let all =
  litmus_entries
  @ [
      {
        w_name = "fig1";
        w_desc = T11r_litmus.Registry.fig1.description;
        w_policy = Policy.default;
        w_instance = pure T11r_litmus.Registry.fig1.build;
      };
      {
        w_name = "fig2-client";
        w_desc = "Figure 2: poll/recv/send client with shutdown signal";
        w_policy = Policy.default;
        w_instance =
          (fun world ->
            let fd =
              T11r_litmus.Fig2_client.setup_world
                T11r_litmus.Fig2_client.default_config world
            in
            fun () -> T11r_litmus.Fig2_client.program ~server_fd:fd ());
      };
      {
        w_name = "httpd";
        w_desc = "Apache httpd model under ab stress (§5.2)";
        w_policy = Policy.default;
        w_instance =
          with_setup
            (Httpd.setup_world Httpd.default_config)
            (fun () -> Httpd.program ());
      };
      {
        w_name = "pbzip";
        w_desc = "parallel block compressor (§5.3)";
        w_policy = Policy.default;
        w_instance = pure (fun () -> Pbzip.program ());
      };
    ]
  @ List.map
      (fun (k : Parsec.kernel) ->
        {
          w_name = k.k_name;
          w_desc = "PARSEC kernel model (§5.3)";
          w_policy = Policy.default;
          w_instance = pure (fun () -> k.build ~threads:4 ());
        })
      Parsec.kernels
  @ [
      {
        w_name = "quakespasm";
        w_desc = "SDL game, uncapped frame rate (§5.4, Table 5)";
        w_policy = Policy.games;
        w_instance =
          pure (fun () -> Game.program ~p:(Game.quakespasm ~fps_cap:None ()) ());
      };
      {
        w_name = "zandronum";
        w_desc = "SDL game with many helper threads, 60 fps cap (§5.4)";
        w_policy = Policy.games;
        w_instance = pure (fun () -> Game.program ~p:(Game.zandronum ()) ());
      };
      {
        w_name = "zandronum-bug";
        w_desc = "multiplayer client with the map-change bug (§5.4)";
        w_policy = Policy.games;
        w_instance =
          (fun world ->
            let fd =
              Zandronum_bug.setup_world Zandronum_bug.default_config world
            in
            fun () -> Zandronum_bug.program ~server_fd:fd ());
      };
      {
        w_name = "sqlite-like";
        w_desc = "memory-layout-dependent walk (§5.5 limitation)";
        w_policy = Policy.default;
        w_instance = pure (fun () -> Sqlite_like.program ());
      };
      {
        w_name = "htop-like";
        w_desc = "/proc monitor needing an extended policy (§4.4)";
        w_policy = Policy.with_proc;
        w_instance =
          with_setup Htop_like.setup_world (fun () -> Htop_like.program ());
      };
    ]

let find name = List.find_opt (fun w -> w.w_name = name) all
let names () = List.map (fun w -> w.w_name) all

let spec_of ?base_conf w =
  let base =
    match base_conf with
    | Some c -> c
    | None -> Conf.tsan11rec ~strategy:Conf.Random ()
  in
  Campaign.spec_io ~label:w.w_name
    ~base_conf:(Conf.with_policy base w.w_policy)
    (fun _i world -> w.w_instance world)

(* A demo replays under the strategy it was recorded with: META names
   it, and the demo files only make sense under that strategy (QUEUE
   is the queue schedule; the other strategies' schedules live in the
   seeds). An explicit strategy is a cross-check, compared by value so
   spellings of one strategy agree. *)
let replay_setup w ~demo ~env_seed ?strategy () =
  let meta = Tsan11rec.Demo.load_meta ~dir:demo in
  let recorded = meta.Tsan11rec.Demo.strategy in
  match Conf.strategy_of_name recorded with
  | None -> Error (Printf.sprintf "demo strategy %S cannot be replayed" recorded)
  | Some s -> (
      match strategy with
      | Some r when Conf.strategy_name r <> Conf.strategy_name s ->
          Error
            (Printf.sprintf "demo was recorded under strategy %s, not %s"
               recorded (Conf.strategy_name r))
      | _ -> (
          (* No seeds: a replay always runs under META's. *)
          let conf =
            Conf.with_policy
              (Conf.tsan11rec ~strategy:s ~mode:(Conf.Replay demo) ())
              w.w_policy
          in
          match Conf.validate conf with
          | Error msg -> Error ("invalid configuration: " ^ msg)
          | Ok conf ->
              let world = World.create ~seed:(Int64.of_int env_seed) () in
              let program = w.w_instance world () in
              if program.T11r_vm.Api.pname <> meta.Tsan11rec.Demo.app then
                Error
                  (Printf.sprintf "demo records app %S, not workload %s"
                     meta.Tsan11rec.Demo.app w.w_name)
              else Ok (conf, world, program)))
