(* The Exec.Pool contract: parallel map/map_reduce agree with the
   sequential oracle bit-for-bit at every worker count, exceptions
   propagate deterministically, and the flow built on top produces
   identical timing whether it runs on 1 or 4 domains. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

(* A floating-point task whose value depends on evaluation order if
   anything reorders the arithmetic — a good canary for determinism. *)
let heavy x =
  let acc = ref (float_of_int x) in
  for i = 1 to 500 do
    acc := !acc +. sin (!acc *. float_of_int i) /. float_of_int i
  done;
  !acc

let inputs = Array.init 97 (fun i -> i)

let with_domains domains f = Exec.Pool.with_pool ~domains f

let test_map_matches_oracle () =
  let oracle = Array.map heavy inputs in
  List.iter
    (fun domains ->
      let got = with_domains domains (fun p -> Exec.Pool.map p heavy inputs) in
      checkb
        (Printf.sprintf "map oracle, %d domains" domains)
        true
        (got = oracle))
    [ 1; 2; 4 ]

let test_map_list_order () =
  let xs = List.init 23 (fun i -> i) in
  let oracle = List.map (fun i -> i * i) xs in
  List.iter
    (fun domains ->
      let got = with_domains domains (fun p -> Exec.Pool.map_list p (fun i -> i * i) xs) in
      checkb (Printf.sprintf "map_list order, %d domains" domains) true (got = oracle))
    [ 1; 2; 4 ]

let test_concat_map_order () =
  let xs = List.init 17 Fun.id in
  let oracle = List.concat_map (fun i -> [ i; i * 10 ]) xs in
  let got =
    with_domains 4 (fun p -> Exec.Pool.concat_map_list p (fun i -> [ i; i * 10 ]) xs)
  in
  checkb "concat order preserved" true (got = oracle)

let test_map_reduce_matches_sequential_fold () =
  (* Non-associative accumulation: any reordering of the reduction
     changes the rounding, so equality here proves ordered reduction. *)
  let reduce acc x = (acc *. 0.99) +. x in
  let oracle = Array.fold_left (fun acc x -> reduce acc (heavy x)) 1.0 inputs in
  List.iter
    (fun domains ->
      let got =
        with_domains domains (fun p ->
            Exec.Pool.map_reduce p ~map:heavy ~reduce ~init:1.0 inputs)
      in
      checkb
        (Printf.sprintf "map_reduce ordered, %d domains" domains)
        true
        (got = oracle))
    [ 1; 2; 4 ]

let test_empty_and_singleton () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          checkb "empty map" true (Exec.Pool.map p heavy [||] = [||]);
          checkb "empty list" true (Exec.Pool.map_list p heavy [] = []);
          checkb "singleton" true (Exec.Pool.map p heavy [| 3 |] = [| heavy 3 |]);
          Alcotest.(check (float 0.0))
            "empty reduce is init" 7.5
            (Exec.Pool.map_reduce p ~map:heavy ~reduce:( +. ) ~init:7.5 [||])))
    [ 1; 4 ]

let test_exception_propagates () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "first failing index, %d domains" domains)
            (Failure "task 5")
            (fun () ->
              ignore
                (Exec.Pool.map p
                   (fun i -> if i >= 5 then failwith (Printf.sprintf "task %d" i) else i)
                   inputs));
          (* The pool survives a failed job. *)
          checki "pool usable after failure" 10
            (Exec.Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0 [| 1; 2; 3; 4 |])))
    [ 1; 2; 4 ]

let test_nested_use_falls_back () =
  let got =
    with_domains 2 (fun p ->
        Exec.Pool.map_list p
          (fun i -> Exec.Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:i [| 1; 2 |])
          [ 10; 20; 30 ])
  in
  checkb "nested maps run inline" true (got = [ 13; 23; 33 ])

let test_stats_counters () =
  with_domains 2 (fun p ->
      ignore (Exec.Pool.map ~label:"stage_a" p heavy inputs);
      ignore (Exec.Pool.map ~label:"stage_a" p heavy inputs);
      ignore (Exec.Pool.map ~label:"stage_b" p heavy inputs);
      let report = Exec.Pool.report p in
      checki "two labels" 2 (List.length report);
      let a = List.assoc "stage_a" report in
      checki "stage_a calls" 2 a.Exec.Pool.calls;
      checki "stage_a tasks" (2 * Array.length inputs) a.Exec.Pool.tasks;
      checkb "stage_a wall accumulates" true (a.Exec.Pool.wall_s >= 0.0);
      Exec.Pool.reset_stats p;
      checki "reset clears" 0 (List.length (Exec.Pool.report p)))

let test_montecarlo_pool_identical () =
  let tech = Layout.Tech.node90 in
  let env = Circuit.Delay_model.default_env tech in
  let n = Circuit.Generator.ripple_adder ~bits:4 in
  let loads = Circuit.Loads.of_netlist env n in
  let config =
    {
      Sta.Montecarlo.trials = 24;
      sigma_global = 3.0;
      sigma_local = 1.5;
      mean_shift = 0.0;
      clock_period = 500.0;
    }
  in
  let seq = Sta.Montecarlo.run env n ~loads config (Stats.Rng.create 5) in
  let par =
    with_domains 4 (fun p ->
        Sta.Montecarlo.run ~pool:p env n ~loads config (Stats.Rng.create 5))
  in
  checkb "MC wns bit-identical" true (seq.Sta.Montecarlo.wns = par.Sta.Montecarlo.wns);
  checkb "MC delay bit-identical" true
    (seq.Sta.Montecarlo.critical_delay = par.Sta.Montecarlo.critical_delay)

(* Flow-level determinism: the full layout -> OPC -> litho -> CD ->
   STA pipeline lands on the same mask, OPC stats and worst slack at
   1 and 4 domains.  At 4 domains model-OPC tiles run as pool tasks,
   so the mask check catches a tile merge out of canonical order. *)
let flow_at domains =
  let c = Timing_opc.Flow.default_config () in
  let c =
    {
      c with
      Timing_opc.Flow.opc_config =
        { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 4 };
      slices = 5;
      domains;
    }
  in
  Timing_opc.Flow.run c (Circuit.Generator.c17 ())

let test_flow_determinism () =
  let a = flow_at 1 and b = flow_at 4 in
  Alcotest.(check (float 0.0))
    "worst slack identical at 1 and 4 domains" a.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns
    b.Timing_opc.Flow.post_opc_sta.Sta.Timing.wns;
  checkb "per-gate CDs identical" true
    (List.map (fun (c : Cdex.Gate_cd.t) -> c.Cdex.Gate_cd.cds) a.Timing_opc.Flow.cds
    = List.map (fun (c : Cdex.Gate_cd.t) -> c.Cdex.Gate_cd.cds) b.Timing_opc.Flow.cds);
  checkb "post-OPC mask identical" true
    (Opc.Mask.polygons a.Timing_opc.Flow.mask
    = Opc.Mask.polygons b.Timing_opc.Flow.mask);
  checkb "OPC stats identical" true
    (a.Timing_opc.Flow.opc_stats = b.Timing_opc.Flow.opc_stats)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

(* Model OPC reports its tiles as one pool job per run when domains > 1
   (and none at domains 1), and the per-tile OPC counters add up to the
   same totals either way. *)
let test_opc_pool_counters () =
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
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches oracle at 1/2/4 domains" `Quick
            test_map_matches_oracle;
          Alcotest.test_case "map_list preserves order" `Quick test_map_list_order;
          Alcotest.test_case "concat_map preserves order" `Quick test_concat_map_order;
          Alcotest.test_case "map_reduce reduction is ordered" `Quick
            test_map_reduce_matches_sequential_fold;
          Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
          Alcotest.test_case "worker exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested use falls back inline" `Quick
            test_nested_use_falls_back;
          Alcotest.test_case "per-label stats counters" `Quick test_stats_counters;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Monte-Carlo identical with pool" `Quick
            test_montecarlo_pool_identical;
          Alcotest.test_case "flow worst slack identical at 1 and 4 domains" `Slow
            test_flow_determinism;
          Alcotest.test_case "OPC pool job counters" `Slow test_opc_pool_counters;
        ] );
    ]
