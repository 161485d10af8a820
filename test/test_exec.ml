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

(* ---- retry supervision ---- *)

(* A task set where the given indices fail exactly once (first attempt)
   and succeed on retry; the tracking table is shared across worker
   domains, hence the lock. *)
let fail_once_tasks ~failing f =
  let seen = Hashtbl.create 97 in
  let lock = Mutex.create () in
  fun i ->
    let first_attempt =
      Mutex.protect lock (fun () ->
          if Hashtbl.mem seen i then false
          else begin
            Hashtbl.add seen i ();
            true
          end)
    in
    if first_attempt && failing i then failwith "transient" else f i

let test_retry_absorbs_transient_failures () =
  let oracle = Array.map (fun i -> i * 3) inputs in
  List.iter
    (fun domains ->
      let flaky = fail_once_tasks ~failing:(fun i -> i mod 3 = 0) (fun i -> i * 3) in
      let got =
        with_domains domains (fun p ->
            Exec.Pool.map ~retry:(Fault.retrying 1) p flaky inputs)
      in
      checkb
        (Printf.sprintf "transient failures invisible, %d domains" domains)
        true (got = oracle))
    [ 1; 2; 4 ]

let test_retry_exhausted_reraises_min_index () =
  List.iter
    (fun domains ->
      with_domains domains (fun p ->
          Alcotest.check_raises
            (Printf.sprintf "min failing index after retries, %d domains" domains)
            (Failure "task 5")
            (fun () ->
              ignore
                (Exec.Pool.map ~retry:(Fault.retrying 2) p
                   (fun i ->
                     if i >= 5 then failwith (Printf.sprintf "task %d" i) else i)
                   inputs));
          checki "pool usable after exhausted retries" 6
            (Exec.Pool.map_reduce p ~map:Fun.id ~reduce:( + ) ~init:0 [| 1; 2; 3 |])))
    [ 1; 2; 4 ]

let test_retry_stats () =
  let global = Obs.Metrics.counter "exec.retries" in
  List.iter
    (fun domains ->
      let before = Obs.Metrics.counter_value global in
      let flaky = fail_once_tasks ~failing:(fun i -> i < 7) Fun.id in
      with_domains domains (fun p ->
          ignore (Exec.Pool.map ~label:"flaky" ~retry:(Fault.retrying 2) p flaky inputs);
          let st = List.assoc "flaky" (Exec.Pool.report p) in
          checki
            (Printf.sprintf "per-label retries, %d domains" domains)
            7 st.Exec.Pool.retries);
      checki
        (Printf.sprintf "global exec.retries delta, %d domains" domains)
        (before + 7)
        (Obs.Metrics.counter_value global))
    [ 1; 2; 4 ]

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
          Alcotest.test_case "retry absorbs transient failures" `Quick
            test_retry_absorbs_transient_failures;
          Alcotest.test_case "exhausted retries raise at min index" `Quick
            test_retry_exhausted_reraises_min_index;
          Alcotest.test_case "retry counters per label and global" `Quick
            test_retry_stats;
          Alcotest.test_case "per-label stats counters" `Quick test_stats_counters;
        ] );
      ( "integration",
        [
          Alcotest.test_case "Monte-Carlo identical with pool" `Quick
            test_montecarlo_pool_identical;
          Alcotest.test_case "flow worst slack identical at 1 and 4 domains" `Slow
            test_flow_determinism;
        ] );
    ]
