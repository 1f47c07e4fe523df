(** Registry of every runnable workload, for the CLI and benches.

    A workload bundles the program builder with the environment setup
    it needs (remote peers, files, signals) and the sparse recording
    policy appropriate for it (§4.4: policies are per-application).

    A workload instance is created per run: [w_instance world] sets up
    the (fresh, per-run) world and returns the program builder.
    Handles created during setup (e.g. the connected socket of the
    Figure-2 client) are captured in the returned closure, never in
    shared state, so instances of the same workload can run
    concurrently on different domains. *)

type t = {
  w_name : string;
  w_desc : string;
  w_policy : Tsan11rec.Policy.t;
  w_instance : T11r_env.World.t -> unit -> T11r_vm.Api.program;
      (** set up the given world and return the program builder *)
}

val all : t list
(** Litmus benchmarks, figure programs, and the §5.2-§5.5
    applications, each with its per-application policy. *)

val find : string -> t option
val names : unit -> string list

val spec_of : ?base_conf:Tsan11rec.Conf.t -> t -> Campaign.spec
(** A campaign spec for the workload: derives per-run seeds, applies
    the workload's policy to [base_conf] (default the random-strategy
    tsan11rec configuration) and threads setup handles through the
    per-run instance closure. *)

val replay_setup :
  t ->
  demo:string ->
  env_seed:int ->
  ?strategy:Tsan11rec.Conf.strategy ->
  unit ->
  ( Tsan11rec.Conf.t * T11r_env.World.t * T11r_vm.Api.program,
    string )
  result
(** What a replay of [demo] needs: the replay configuration under the
    strategy recorded in the demo's META, a fresh fault-free world
    seeded [env_seed] and the workload's program. [strategy] (an
    explicit [-s]) is only a cross-check: [Error] unless it is the
    recorded strategy. Also [Error] when META's app is not this
    workload's program, or its strategy cannot be replayed (guided
    recordings).
    @raise Tsan11rec.Demo.Corrupt if META is missing or damaged. *)
