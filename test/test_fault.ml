(* The robustness contract of lib/fault: fault specs parse and
   round-trip, fault points fire deterministically, permanent
   measurement failures degrade (never abort), and — the tentpole
   property — a flow run whose transient injected faults are all
   absorbed by retries is bit-identical to a fault-free run, also when
   the faults fire inside OPC tiles and extraction buckets running as
   pool tasks. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* Every test that installs a plan clears it afterwards so tests stay
   independent (and a failure can't poison the rest of the binary). *)
let with_plan plan f =
  Fun.protect ~finally:(fun () -> Fault.set_plan None) (fun () ->
      Fault.set_plan (Some plan);
      f ())

(* ---- fault-spec parsing ---- *)

let test_parse_roundtrip () =
  match Fault.parse "litho.simulate=fail2;sta.*=p0.25;opc.correct=always;seed=7" with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      checki "seed" 7 plan.Fault.seed;
      checki "rules" 3 (List.length plan.Fault.rules);
      checkb "fail count" true
        (List.exists
           (fun (r : Fault.rule) ->
             r.Fault.pattern = "litho.simulate" && r.Fault.action = Fault.Fail 2)
           plan.Fault.rules);
      let text = Fault.to_string plan in
      checkb "to_string round-trips" true (Fault.parse text = Ok plan)

let test_parse_errors () =
  List.iter
    (fun spec ->
      match Fault.parse spec with
      | Ok _ -> Alcotest.failf "accepted bad spec %S" spec
      | Error _ -> ())
    [ "bogus"; "x=wrong"; "a b=fail"; "a.b=p1.5"; "a.b=fail0"; "seed=x"; "=fail" ]

(* ---- point semantics ---- *)

let test_fail_n_then_succeed () =
  with_plan { Fault.seed = 0; rules = [ { Fault.pattern = "t.p"; action = Fault.Fail 2 } ] }
    (fun () ->
      let hit () = Fault.point "t.p" (fun () -> 42) in
      Alcotest.check_raises "hit 0 fails" (Fault.Injected "t.p") (fun () -> ignore (hit ()));
      Alcotest.check_raises "hit 1 fails" (Fault.Injected "t.p") (fun () -> ignore (hit ()));
      checki "hit 2 succeeds" 42 (hit ());
      checki "hit 3 succeeds" 42 (hit ()))

let test_glob_and_disabled () =
  (* No plan: the point is transparent. *)
  checki "disabled point is identity" 7 (Fault.point "t.anything" (fun () -> 7));
  with_plan { Fault.seed = 0; rules = [ { Fault.pattern = "t.g.*"; action = Fault.Always } ] }
    (fun () ->
      Alcotest.check_raises "prefix glob matches" (Fault.Injected "t.g.x") (fun () ->
          ignore (Fault.point "t.g.x" (fun () -> 0)));
      checki "non-matching point untouched" 3 (Fault.point "t.other" (fun () -> 3)))

let test_flow_points_declared () =
  let pts = Fault.points () in
  List.iter
    (fun p -> checkb (p ^ " declared") true (List.mem p pts))
    [ "litho.simulate"; "opc.correct"; "cdex.extract"; "cdex.measure";
      "cdex.annotate"; "sta.analyze" ]

let test_flaky_is_deterministic () =
  let plan =
    { Fault.seed = 11; rules = [ { Fault.pattern = "t.flaky"; action = Fault.Flaky 0.5 } ] }
  in
  let sequence () =
    List.init 20 (fun _ ->
        match Fault.point "t.flaky" (fun () -> true) with
        | (_ : bool) -> true
        | exception Fault.Injected _ -> false)
  in
  let a = with_plan plan sequence in
  let b = with_plan plan sequence in
  checkb "same outcome sequence on re-install" true (a = b);
  checkb "both outcomes occur at p=0.5 over 20 hits" true
    (List.mem true a && List.mem false a)

(* ---- retry supervision ---- *)

let test_with_retry_absorbs_and_exhausts () =
  let calls = ref 0 in
  let v =
    Fault.with_retry (Fault.retrying 2) (fun () ->
        incr calls;
        if !calls < 3 then failwith "transient" else !calls)
  in
  checki "succeeds on third attempt" 3 v;
  let attempts = ref 0 in
  Alcotest.check_raises "exhaustion re-raises the original" (Failure "permanent")
    (fun () ->
      ignore
        (Fault.with_retry (Fault.retrying 2) (fun () ->
             incr attempts;
             failwith "permanent")));
  checki "all attempts consumed" 3 !attempts

(* ---- flow integration ---- *)

let base_config () =
  let c = Timing_opc.Flow.default_config () in
  {
    c with
    Timing_opc.Flow.opc_config =
      { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 2 };
    slices = 3;
  }

(* Canonical full-precision rendering of everything a run produces;
   equality of these strings is the bit-identical invariant. *)
let render (r : Timing_opc.Flow.run) =
  Format.asprintf "%a@.%a@.%a@.%a@.%a@."
    (fun ppf cds -> Cdex.Csv.write ~exact:true ppf cds)
    r.Timing_opc.Flow.cds Opc.Model_opc.pp_stats r.Timing_opc.Flow.opc_stats
    Sta.Timing.pp_summary r.Timing_opc.Flow.drawn_sta Sta.Timing.pp_summary
    r.Timing_opc.Flow.post_opc_sta Timing_opc.Compare.pp_slack_delta
    (Timing_opc.Compare.slack_delta r.Timing_opc.Flow.drawn_sta
       r.Timing_opc.Flow.post_opc_sta)

let netlist = lazy (Circuit.Generator.c17 ())

(* Fault-free reference (also warms the memoised litho model). *)
let baseline = lazy (render (Timing_opc.Flow.run (base_config ()) (Lazy.force netlist)))

let test_permanent_measure_fault_degrades () =
  let before = Obs.Metrics.counter_value (Obs.Metrics.counter "flow.degraded_gates") in
  ignore (Lazy.force baseline);
  let r =
    with_plan
      { Fault.seed = 0;
        rules = [ { Fault.pattern = "cdex.measure"; action = Fault.Always } ] }
      (fun () ->
        Timing_opc.Flow.run
          { (base_config ()) with Timing_opc.Flow.retry = Fault.retrying 1 }
          (Lazy.force netlist))
  in
  let degraded =
    Obs.Metrics.counter_value (Obs.Metrics.counter "flow.degraded_gates") - before
  in
  checki "every gate degraded, none aborted" (List.length r.Timing_opc.Flow.cds) degraded;
  checkb "degraded gates report their drawn CD (plus noise)" true
    (List.for_all (fun (c : Cdex.Gate_cd.t) -> c.Cdex.Gate_cd.printed)
       r.Timing_opc.Flow.cds)

(* The tentpole property: a random transient-fault plan — fail-N rules
   at every registered flow fault point — leaves the retried run
   bit-identical to the fault-free baseline.  The retry budget is the
   plan's total fail count: every failed supervised attempt consumes at
   least one pending injected failure, and several points can fire
   inside one stage (e.g. opc.correct and litho.simulate both guard
   work under the OPC stage once the litho model is memoised), so the
   per-stage budget must cover the plan-wide total. *)
let transient_faults_bit_identical =
  let points =
    [ "litho.simulate"; "opc.correct"; "cdex.extract"; "cdex.measure";
      "cdex.annotate"; "sta.analyze" ]
  in
  QCheck.Test.make ~name:"retried transient faults are invisible" ~count:6
    (QCheck.int_range 1 100000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      let rules =
        List.filter_map
          (fun p ->
            if Stats.Rng.float rng < 0.6 then
              Some { Fault.pattern = p; action = Fault.Fail (1 + Stats.Rng.int rng 3) }
            else None)
          points
      in
      let budget =
        List.fold_left
          (fun acc (r : Fault.rule) ->
            match r.Fault.action with Fault.Fail n -> acc + n | _ -> acc)
          0 rules
      in
      let plan = { Fault.seed = seed; rules } in
      let reference = Lazy.force baseline in
      let faulted =
        with_plan plan (fun () ->
            Timing_opc.Flow.run
              { (base_config ()) with Timing_opc.Flow.retry = Fault.retrying budget }
              (Lazy.force netlist))
      in
      render faulted = reference)

(* ---- cross-feature identity on the pool path ---- *)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Cross-feature identity matrix: {checkpoint} x {absorbed faults
   under retry} x {domains 1/4}, every cell hashing to the one
   sequential output.  At 4 domains the injected faults fire inside
   pool-run OPC tiles and extraction buckets; a failed tile is not
   retried on its own but fails the OPC stage, whose retry re-runs it. *)
let test_feature_matrix () =
  let canonical =
    Digest.string (fst (Identity_helpers.baseline ~tile:1500 0))
  in
  let injected0 = counter "fault.injected" in
  let plan =
    match
      Fault.parse "litho.simulate=fail1;opc.correct=fail1;cdex.measure=fail2;seed=11"
    with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fun.protect ~finally:(fun () -> Fault.set_plan None) @@ fun () ->
  List.iter
    (fun with_ckpt ->
      List.iter
        (fun faulty ->
          List.iter
            (fun domains ->
              let what =
                Printf.sprintf "ckpt=%b faults=%b domains=%d" with_ckpt faulty
                  domains
              in
              Fault.set_plan (if faulty then Some plan else None);
              let checkpoint =
                if with_ckpt then
                  Some
                    (Timing_opc.Checkpoint.create
                       ~dir:(Filename.temp_dir "potx_fault_" "matrix")
                       ~resume:false)
                else None
              in
              let config =
                { (Identity_helpers.base_config ~domains ()) with
                  Timing_opc.Flow.checkpoint;
                  retry = Fault.retrying 3 }
              in
              let r = Timing_opc.Flow.run config (Identity_helpers.netlist_of 0) in
              checkb (what ^ ": canonical hash") true
                (Digest.string (Identity_helpers.render_run r) = canonical))
            [ 1; 4 ])
        [ false; true ])
    [ false; true ];
  checkb "matrix really injected faults" true (counter "fault.injected" - injected0 > 0)

(* Model OPC reports its tiles as one pool job per run when domains > 1
   (and none at domains 1), and the per-tile OPC counters add up to the
   same totals either way. *)
let test_pool_counters () =
  let opc_counters () =
    List.map counter [ "opc.iterations"; "opc.epe_sites"; "opc.unresolved" ]
  in
  let calls () = counter "exec.pool.flow.opc.tiles.calls" in
  let tasks () = counter "exec.pool.flow.opc.tiles.tasks" in
  let run_at domains =
    let o0 = opc_counters () and c0 = calls () and t0 = tasks () in
    ignore
      (Timing_opc.Flow.run
         (Identity_helpers.base_config ~domains ())
         (Identity_helpers.netlist_of 0));
    (List.map2 ( - ) (opc_counters ()) o0, calls () - c0, tasks () - t0)
  in
  let seq_opc, seq_calls, _ = run_at 1 in
  let par_opc, par_calls, par_tasks = run_at 4 in
  checki "no OPC pool job at 1 domain" 0 seq_calls;
  checki "one OPC pool job at 4 domains" 1 par_calls;
  checkb "several OPC tiles on the pool" true (par_tasks > 1);
  checkb "OPC counters moved" true (List.exists (fun d -> d > 0) seq_opc);
  checkb "OPC counters equal at 1 and 4 domains" true (seq_opc = par_opc)

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parse round-trips" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse rejects junk" `Quick test_parse_errors;
        ] );
      ( "points",
        [
          Alcotest.test_case "failN then succeed" `Quick test_fail_n_then_succeed;
          Alcotest.test_case "glob and disabled fast path" `Quick test_glob_and_disabled;
          Alcotest.test_case "flow points declared" `Quick test_flow_points_declared;
          Alcotest.test_case "flaky rules are deterministic" `Quick
            test_flaky_is_deterministic;
        ] );
      ( "retry",
        [
          Alcotest.test_case "absorbs then exhausts" `Quick
            test_with_retry_absorbs_and_exhausts;
        ] );
      ( "flow",
        [
          Alcotest.test_case "permanent measure fault degrades" `Slow
            test_permanent_measure_fault_degrades;
          QCheck_alcotest.to_alcotest transient_faults_bit_identical;
        ] );
      ( "features",
        [
          Alcotest.test_case "observability counters" `Slow test_pool_counters;
          Alcotest.test_case "checkpoint x faults x domains" `Slow
            test_feature_matrix;
        ] );
    ]
