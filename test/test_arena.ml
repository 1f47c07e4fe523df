(* Run-context recycling. The load-bearing property: a run executed on a
   recycled [Interp.arena] is observationally identical to a run on fresh
   state — same outcome, races, output, metrics, coverage fingerprint,
   trace, rng draws and (in record mode) demo bytes. One arena is shared
   by every case in this file, so each case also exercises recycling
   across workloads, seeds, worlds and modes. *)

module Conf = Tsan11rec.Conf
module Interp = Tsan11rec.Interp
module World = T11r_env.World
module Fault = T11r_env.Fault
module Httpd = T11r_apps.Httpd

let qtest = QCheck_alcotest.to_alcotest

(* Everything except the demo handle (compared separately, as saved
   bytes): if any of it drifts, the fingerprint drifts. *)
let fingerprint (r : Interp.result) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string { r with Interp.demo = None } [ Marshal.No_sharing ]))

let litmus_names = [| "fig1"; "mcs-lock"; "dekker-fences"; "barrier"; "ms-queue" |]

let litmus wi =
  let name = litmus_names.(wi mod Array.length litmus_names) in
  if name = "fig1" then T11r_litmus.Registry.fig1
  else Option.get (T11r_litmus.Registry.find name)

let base_conf ~s1 ~s2 =
  Conf.with_seeds
    (Conf.with_coverage (Conf.tsan11rec ~strategy:Conf.Random ()) true)
    s1 s2

let shared_arena = Interp.create_arena ()

(* ------------------------------------------------------------------ *)
(* Arena recycling differential                                         *)

let arena_differential_test =
  QCheck.Test.make
    ~name:"recycled arena run = fresh-state run (mixed workloads)" ~count:120
    QCheck.(triple (int_range 0 4) int64 int64)
    (fun (wi, s1, s2) ->
      let e = litmus wi in
      let conf = base_conf ~s1 ~s2 in
      let fresh =
        Interp.run ~world:(World.create ~seed:3L ()) conf (e.build ())
      in
      let recycled =
        Interp.run ~world:(World.create ~seed:3L ()) ~arena:shared_arena conf
          (e.build ())
      in
      if fingerprint fresh <> fingerprint recycled then
        QCheck.Test.fail_reportf "%s: arena run diverged from fresh state"
          e.T11r_litmus.Registry.name;
      true)

(* httpd under fault injection: world setup opens connections and the
   fault plan injects syscall failures — the stress case for recycling
   outside the syscall-free litmus suite. *)
let httpd_arena_test =
  let cfg = { Httpd.default_config with queries = 8; clients = 2; workers = 2 } in
  let world () =
    let w =
      World.create ~seed:23L ~faults:(Fault.uniform ~seed:5L ~p:0.05 ()) ()
    in
    Httpd.setup_world cfg w;
    w
  in
  QCheck.Test.make ~name:"faulty httpd: arena run = fresh-state run" ~count:25
    QCheck.(pair int64 int64)
    (fun (s1, s2) ->
      let conf = base_conf ~s1 ~s2 in
      let fresh = Interp.run ~world:(world ()) conf (Httpd.program ~cfg ()) in
      let recycled =
        Interp.run ~world:(world ()) ~arena:shared_arena conf
          (Httpd.program ~cfg ())
      in
      if fingerprint fresh <> fingerprint recycled then
        QCheck.Test.fail_reportf "httpd: arena run diverged from fresh state";
      true)

(* ------------------------------------------------------------------ *)
(* Demo bytes on a recycled arena                                       *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let dir_bytes dir =
  let files = Sys.readdir dir in
  Array.sort compare files;
  String.concat "|"
    (Array.to_list
       (Array.map
          (fun f ->
            f ^ ":" ^ Digest.to_hex (Digest.string (read_file (Filename.concat dir f))))
          files))

let demo_bytes_arena_test =
  QCheck.Test.make ~name:"record mode: arena run writes identical demo bytes"
    ~count:25
    QCheck.(triple (int_range 0 4) int64 int64)
    (fun (wi, s1, s2) ->
      let e = litmus wi in
      let base = T11r_util.Tmp.fresh_dir ~prefix:"t11r-arena" () in
      Fun.protect
        ~finally:(fun () -> T11r_util.Tmp.rm_rf base)
        (fun () ->
          let run ?arena dir =
            let conf =
              Conf.with_seeds
                (Conf.tsan11rec ~strategy:Conf.Random
                   ~mode:(Conf.Record (Filename.concat base dir))
                   ())
                s1 s2
            in
            ignore
              (Interp.run ~world:(World.create ~seed:17L ()) ?arena conf
                 (e.build ()))
          in
          run "fresh";
          run ~arena:shared_arena "recycled";
          if
            dir_bytes (Filename.concat base "fresh")
            <> dir_bytes (Filename.concat base "recycled")
          then
            QCheck.Test.fail_reportf "%s: arena run wrote different demo bytes"
              e.T11r_litmus.Registry.name;
          true))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "arena"
    [
      ("arena", [ qtest arena_differential_test ]);
      ("recycle", [ qtest httpd_arena_test; qtest demo_bytes_arena_test ]);
    ]
