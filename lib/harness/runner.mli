(** Experiment driver — thin compatibility layer over {!Campaign}.

    @deprecated New code should use {!Campaign.run} directly: it
    exposes the same aggregation plus schedule/race-sighting tables,
    observers and domain-pool sharding. This module remains for the
    original "run N times, summarise" call sites.

    Every experiment in the paper is "run workload W under tool T, N
    times; report mean time (sd), race rate, ...". The seed discipline
    lives in {!Campaign.spec}: run [i] of an experiment gets scheduler
    seeds derived from [i] (standing in for the wall-clock seeding of
    a real recording run) and an environment seed derived from [i], so
    the whole experiment is reproducible — and index-determined, which
    is what makes sharding across domains sound. *)

type spec = Campaign.spec = {
  label : string;  (** row/column label, e.g. "tsan11rec rnd" *)
  conf : int -> Tsan11rec.Conf.t;  (** configuration for run [i] *)
  instance : int -> T11r_env.World.t * T11r_vm.Api.program;
      (** fresh world and program for run [i] (see {!Campaign.spec}) *)
}

val spec :
  label:string ->
  ?base_conf:Tsan11rec.Conf.t ->
  ?setup_world:(T11r_env.World.t -> unit) ->
  (unit -> T11r_vm.Api.program) ->
  spec
(** Alias of {!Campaign.spec}. *)

type agg = {
  label : string;
  n : int;
  time_ms : T11r_util.Stats.summary;  (** makespans, in ms *)
  race_rate : float;  (** % of runs with at least one race *)
  mean_reports : float;  (** mean distinct race reports per run *)
  completed : int;  (** runs with outcome = Completed *)
  outcomes : (string * int) list;  (** outcome histogram, sorted by key *)
  mean_ticks : float;
  results : Tsan11rec.Interp.result list;
}

val run_many : ?jobs:int -> spec -> n:int -> agg
(** Execute [n] runs and aggregate, on up to [jobs] domains (default 1).
    Aggregates are identical for every [jobs].
    @deprecated use {!Campaign.run}. *)

val throughput : agg -> work_items:int -> float
(** work_items / mean time, in items per second — Table 2's metric. *)

val overhead : baseline:agg -> agg -> float
(** Mean-time ratio vs a baseline aggregate. *)
