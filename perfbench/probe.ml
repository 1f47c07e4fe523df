(* In-process probe for the perfbench driver (run.py).

   For one workload it calls the public library functions the CLI
   command uses, with the CLI's exact configuration and seed
   discipline, and prints one JSON object on stdout: the semantic
   counts the driver compares against the CLI's output, plus — with
   [--trace FILE] — per-layer timings and a Chrome trace-event file of
   the spans recorded around each call.

   Without [--trace] the workload is executed once, untimed, as the
   correctness oracle. With [--trace] it is executed five times, twice
   inside spans, so [untraced_s]/[traced_s] give the tracing overhead,
   and the executions must agree; then each layer is probed on its
   own. Spans live in memory and are written when the probe ends.

     probe.exe hunt  --workload fig1 --runs N --env-seed E [--trace F]
     probe.exe check --workload ms-queue --max-runs M [--trace F]
     probe.exe rr    --workload fluidanimate --seeds I,J,.. --dir D [--trace F] *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module Demo = Tsan11rec.Demo
module World = T11r_env.World
module Workloads = T11r_harness.Workloads
module Campaign = T11r_harness.Campaign
module Systematic = T11r_harness.Systematic
module Metrics = T11r_obs.Metrics

(* ---- spans ----------------------------------------------------------- *)

type span = { id : int; parent : int; name : string; t0 : float; t1 : float }

let tracing = ref false
let spans = ref []
let stack = ref [ 0 ]
let next_id = ref 1

(* [span name f] runs [f], recording a span when tracing is on. Spans
   nest by the dynamic call structure: the caller's open span is the
   parent (0 = none). *)
let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = List.hd !stack in
    stack := id :: !stack;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      spans := { id; parent; name; t0; t1 } :: !spans
    in
    Fun.protect ~finally:finish f
  end

(* Mean duration in seconds of the spans called [name]. *)
let span_s name =
  let n, total =
    List.fold_left
      (fun (n, acc) s -> if s.name = name then (n + 1, acc +. (s.t1 -. s.t0)) else (n, acc))
      (0, 0.0) !spans
  in
  total /. float_of_int (max 1 n)

let chrome_json ~label =
  let base =
    List.fold_left (fun acc s -> Float.min acc s.t0) infinity !spans
  in
  let us t = Float.round ((t -. base) *. 1e6) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\": [\n";
  Printf.bprintf buf
    "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, \
     \"args\": {\"name\": \"perfbench %s\"}}"
    label;
  List.iter
    (fun s ->
      Printf.bprintf buf
        ",\n  {\"name\": \"%s\", \"cat\": \"layer\", \"ph\": \"X\", \"pid\": \
         1, \"tid\": 1, \"ts\": %.0f, \"dur\": %.0f, \"args\": {\"id\": %d, \
         \"parent\": %d}}"
        s.name (us s.t0)
        (us s.t1 -. us s.t0)
        s.id s.parent)
    (List.sort (fun a b -> compare a.t0 b.t0) !spans);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

(* ---- JSON output ----------------------------------------------------- *)

type json = I of int | F of float | S of string | B of bool | O of (string * json) list | L of json list

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let rec render = function
  | I n -> string_of_int n
  | F x -> Printf.sprintf "%.9g" x
  | S s -> quote s
  | B b -> string_of_bool b
  | O kvs ->
      "{"
      ^ String.concat ", "
          (List.map (fun (k, v) -> quote k ^ ": " ^ render v) kvs)
      ^ "}"
  | L xs -> "[" ^ String.concat ", " (List.map render xs) ^ "]"

let metrics_json (m : Metrics.t) =
  O
    [
      ("ticks", I m.m_ticks);
      ("preemptions", I m.m_preemptions);
      ("waits", I m.m_waits);
      ("detector_checks", I m.m_det_checks);
      ("evictions", I m.m_evictions);
      ("stale_reads", I m.m_stale_reads);
    ]

let histogram kvs = O (List.map (fun (k, v) -> (k, I v)) kvs)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 2) fmt

let workload name =
  match Workloads.find name with
  | Some w -> w
  | None -> fail "probe: unknown workload %S" name

let validated c =
  match Conf.validate c with Ok c -> c | Error m -> fail "probe: %s" m

(* A span recorded even though tracing is off around it: the workload's
   traced executions and the layer probes that follow them. *)
let traced_span name f =
  tracing := true;
  Fun.protect ~finally:(fun () -> tracing := false) (fun () -> span name f)

(* Runs [f] once untraced, or — when a trace file is wanted — once to
   warm the heap and then four times in the order untraced, traced,
   traced, untraced, so drift falls equally on both sides of the
   tracing overhead. Returns every result with the untraced and traced
   wall times of the last four. *)
let abba ~traced f =
  let time g =
    let t0 = Unix.gettimeofday () in
    let v = g () in
    (v, Unix.gettimeofday () -. t0)
  in
  let plain () = time f in
  let spanned () = time (fun () -> traced_span "workload" f) in
  let order = if traced then [ plain; plain; spanned; spanned; plain ] else [ plain ] in
  let runs = List.map (fun g -> g ()) order in
  let sum pick = List.fold_left ( +. ) 0.0 (List.filteri (fun i _ -> pick i) (List.map snd runs)) in
  (List.map fst runs, sum (fun i -> i = 1 || i = 4), sum (fun i -> i = 2 || i = 3))

let timed_loop n f =
  let t0 = Unix.gettimeofday () in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    acc := !acc + f i
  done;
  (Unix.gettimeofday () -. t0, !acc)

(* Every execution's counts, which must all be equal. *)
let counts_fields ~counts = function
  | [] -> assert false
  | r :: rest ->
      [ ("counts", counts r); ("consistent", B (List.for_all (fun r' -> counts r' = counts r) rest)) ]

(* ---- hunt: Campaign.run + Campaign.digest, as `hunt -s random` ------- *)

(* Layer-probe sizes: bare fig1 runs, full-depth guided ms-queue runs. *)
let interp_runs = 20_000
let guided_runs = 20

let hunt ~name ~runs ~env_seed ~traced =
  let w = workload name in
  let base =
    validated
      (Conf.with_policy (Conf.tsan11rec ~strategy:Conf.Random ()) w.w_policy)
  in
  (* The CLI's seed discipline: run i gets scheduler seeds i and
     i + 7919 and environment seed env_seed + i, runs 1..n. *)
  let spec =
    {
      Campaign.label = name;
      conf = (fun i -> Conf.with_seeds base (Int64.of_int i) (Int64.of_int (i + 7919)));
      instance =
        (fun i ->
          let world = World.create ~seed:(Int64.of_int (env_seed + i)) () in
          (world, w.w_instance world ()));
    }
  in
  let unit () =
    let r =
      span "campaign.run" (fun () -> Campaign.run spec ~n:runs ~jobs:1 ~first:1 [])
    in
    let d = span "campaign.digest" (fun () -> Campaign.digest r) in
    (r, d)
  in
  let xs, untraced_s, traced_s = abba ~traced unit in
  let counts ((r : Campaign.report), digest) =
    O
      [
        ("runs", I r.supervision.sup_done);
        ("racy", I r.racy_runs);
        ("outcomes", histogram r.outcomes);
        ("distinct_schedules", I r.distinct_schedules);
        ("digest", S digest);
      ]
  in
  let r, _ = List.hd xs in
  let layers =
    if not traced then []
    else begin
      (* Bare interpreter cost: the same program and seeds through
         Interp.run on the domain arena, outside any campaign. *)
      let arena = Campaign.domain_arena () in
      let run_s, ticks =
        traced_span "interp.run" (fun () ->
            timed_loop interp_runs (fun k ->
                let i = k + 1 in
                let world = Campaign.recycled_world ~seed:(Int64.of_int (env_seed + i)) in
                let res = Interp.run ~world ~arena (spec.conf i) (w.w_instance world ()) in
                res.ticks))
      in
      let call_s = span_s "campaign.run" in
      let pool_s =
        List.fold_left (fun acc ((r : Campaign.report), _) -> acc +. r.wall_s) 0.0 [ List.nth xs 2; List.nth xs 3 ]
        /. 2.0
      in
      [
        ("campaign.call_s", F call_s);
        ("campaign.pool_s", F pool_s);
        ("campaign.aggregate_s", F (call_s -. pool_s));
        ("campaign.digest_s", F (span_s "campaign.digest"));
        ("campaign.us_per_run", F (call_s *. 1e6 /. float_of_int runs));
        ("campaign.distinct_schedules", I r.distinct_schedules);
        ("interp.run_us", F (run_s *. 1e6 /. float_of_int interp_runs));
        ("interp.ns_per_tick", F (run_s *. 1e9 /. float_of_int (max 1 ticks)));
      ]
    end
  in
  (counts_fields ~counts xs @ [ ("metrics", metrics_json r.metrics) ], layers, untraced_s, traced_s)

(* ---- check: Systematic.explore, as `check --jobs 1` ------------------ *)

let check ~name ~max_runs ~traced =
  let w = workload name in
  let builds = ref 0 in
  let build () =
    incr builds;
    w.w_instance (World.create ~seed:0L ()) ()
  in
  let unit () =
    builds := 0;
    let r =
      span "systematic.explore" (fun () -> Systematic.explore ~max_runs ~jobs:1 ~build ())
    in
    (r, !builds)
  in
  let xs, untraced_s, traced_s = abba ~traced unit in
  let counts ((r : Systematic.result), builds) =
    O
      [
        ("runs", I r.runs);
        ("complete", B r.complete);
        ("racy", I r.racy_schedules);
        ("deadlocks", I r.deadlock_schedules);
        ("crashes", I r.crash_schedules);
        ("outcomes", histogram (List.sort compare r.outcomes));
        ( "races",
          L (List.map (fun x -> S (Format.asprintf "%a" T11r_race.Report.pp x)) r.races) );
        ("max_depth", I r.max_depth_seen);
        ("builds", I builds);
      ]
  in
  (* One full-depth guided run — index 0 at every point, with the
     explorer's seeds and world — is the execution share of a
     schedule; the rest of explore's time is analysis. *)
  let guided () =
    let conf =
      Conf.with_seeds
        (Conf.tsan11rec ~strategy:(Conf.Guided { prefix = [||]; observed = ref [] }) ())
        11L 13L
    in
    let world = Campaign.recycled_world ~seed:7L in
    Interp.run ~world ~arena:(Campaign.domain_arena ()) conf (build ())
  in
  let g = guided () in
  let (r : Systematic.result), builds = List.hd xs in
  let layers =
    if not traced then []
    else begin
      let run_s, _ =
        traced_span "interp.guided_run" (fun () ->
            timed_loop guided_runs (fun _ -> (guided ()).ticks))
      in
      let explore_s = span_s "systematic.explore" in
      let guided_ms = run_s *. 1e3 /. float_of_int guided_runs in
      let exec_est = float_of_int builds *. guided_ms /. 1e3 in
      [
        ("systematic.explore_s", F explore_s);
        ("systematic.builds", I builds);
        ("systematic.max_depth", I r.max_depth_seen);
        ("interp.guided_run_ms", F guided_ms);
        ("systematic.exec_est_s", F exec_est);
        ("systematic.analysis_est_s", F (explore_s -. exec_est));
        ( "systematic.analysis_ms_per_run",
          F ((explore_s -. exec_est) *. 1e3 /. float_of_int (max 1 r.runs)) );
      ]
    end
  in
  (counts_fields ~counts xs @ [ ("metrics", metrics_json g.metrics) ], layers, untraced_s, traced_s)

(* ---- rr: record then replay, as `record`/`replay -s queue` ----------- *)

let rr ~name ~seeds ~dir ~traced =
  let w = workload name in
  let conf mode ~seed =
    validated
      (Conf.with_seeds
         (Conf.with_policy
            (Conf.with_mode (Conf.tsan11rec ~strategy:Conf.Queue ()) mode)
            w.w_policy)
         (Int64.of_int seed)
         (Int64.of_int (seed + 7919)))
  in
  let one i =
    let demo = Filename.concat dir (Printf.sprintf "probe-%d" i) in
    T11r_util.Tmp.rm_rf demo;
    let world = World.create ~seed:(Int64.of_int i) () in
    let rec_ =
      span "interp.record" (fun () ->
          Interp.run ~world (conf (Conf.Record demo) ~seed:i) (w.w_instance world ()))
    in
    let world = World.create ~seed:(Int64.of_int (i + 1000)) () in
    let rep =
      span "interp.replay" (fun () ->
          Interp.run ~world (conf (Conf.Replay demo) ~seed:0) (w.w_instance world ()))
    in
    (* The codec's share of each side, timed on the same demo. *)
    let d = Option.get rec_.demo in
    let copy = demo ^ "-save" in
    T11r_util.Tmp.rm_rf copy;
    span "demo.save" (fun () -> Demo.save d ~dir:copy);
    ignore (span "demo.load" (fun () -> Demo.load ~dir:demo) : Demo.t);
    T11r_util.Tmp.rm_rf copy;
    T11r_util.Tmp.rm_rf demo;
    (rec_, rep, Demo.size_bytes d)
  in
  let unit () = List.map one seeds in
  let xs, untraced_s, traced_s = abba ~traced unit in
  let counts per_seed =
    L
      (List.map2
         (fun i ((r : Interp.result), (p : Interp.result), bytes) ->
           O
             [
               ("seed", I i);
               ("record_outcome", S (T11r_harness.Outcome.key r.outcome));
               ("ticks", I r.ticks);
               ("output", S r.output);
               ("demo_bytes", I bytes);
               ("replay_outcome", S (T11r_harness.Outcome.key p.outcome));
               ("replay_output", S p.output);
               ("soft_desync", B p.soft_desync);
               ("desyncs", I p.desync_count);
             ])
         seeds per_seed)
  in
  let first = List.hd xs in
  let ms name = span_s name *. 1e3 in
  let layers =
    if not traced then []
    else
      let bytes = List.fold_left (fun acc (_, _, b) -> acc + b) 0 first in
      [
        ("interp.record_ms", F (ms "interp.record"));
        ("demo.save_ms", F (ms "demo.save"));
        ("interp.record_exec_ms", F (ms "interp.record" -. ms "demo.save"));
        ("interp.replay_ms", F (ms "interp.replay"));
        ("demo.load_ms", F (ms "demo.load"));
        ("interp.replay_exec_ms", F (ms "interp.replay" -. ms "demo.load"));
        ("demo.bytes", I (bytes / List.length seeds));
      ]
  in
  let r, _, _ = List.hd first in
  (counts_fields ~counts xs @ [ ("metrics", metrics_json r.metrics) ], layers, untraced_s, traced_s)

(* ---- command line ---------------------------------------------------- *)

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let name = ref "" and runs = ref 0 and env_seed = ref 42 and max_runs = ref 0 in
  let seeds = ref "" and dir = ref "" and trace = ref "" in
  let specs =
    [
      ("--workload", Arg.Set_string name, "NAME workload to run");
      ("--runs", Arg.Set_int runs, "N hunt: campaign size");
      ("--env-seed", Arg.Set_int env_seed, "E hunt: environment seed base");
      ("--max-runs", Arg.Set_int max_runs, "M check: schedule budget");
      ("--seeds", Arg.Set_string seeds, "I,J,.. rr: record seeds");
      ("--dir", Arg.Set_string dir, "D rr: scratch directory for demos");
      ("--trace", Arg.Set_string trace, "F write spans here and time layers");
    ]
  in
  let usage = "probe.exe (hunt|check|rr) [options]" in
  (try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> fail "probe: stray %S" a) usage
   with Arg.Bad m | Arg.Help m -> fail "%s" m);
  let traced = !trace <> "" in
  let fields, layers, untraced_s, traced_s =
    match mode with
    | "hunt" when !runs > 0 ->
        hunt ~name:!name ~runs:!runs ~env_seed:!env_seed ~traced
    | "check" when !max_runs > 0 ->
        check ~name:!name ~max_runs:!max_runs ~traced
    | "rr" when !seeds <> "" && !dir <> "" ->
        let seeds = List.map int_of_string (String.split_on_char ',' !seeds) in
        rr ~name:!name ~seeds ~dir:!dir ~traced
    | _ -> fail "%s" (Arg.usage_string specs usage)
  in
  let trace_fields =
    if not traced then []
    else begin
      let json = chrome_json ~label:(mode ^ " " ^ !name) in
      Out_channel.with_open_bin !trace (fun oc -> output_string oc json);
      [
        ("untraced_s", F untraced_s);
        ("traced_s", F traced_s);
        ("spans", I (List.length !spans));
        ( "trace_valid",
          B (Result.is_ok (T11r_obs.Chrome.validate json)) );
        ("layers", O layers);
      ]
    end
  in
  print_endline (render (O (fields @ trace_fields)))
