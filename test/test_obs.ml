(* lib/obs: span nesting/ordering, disabled-mode no-op, histogram
   bucket determinism, JSONL round-trips, and the flow-level contract
   that counters/histograms are identical for any worker count. *)

let checkb = Alcotest.(check bool)

let checki = Alcotest.(check int)

let checks = Alcotest.(check string)

(* ---- spans ---- *)

let test_span_nesting () =
  Obs.Span.enable ();
  let r =
    Obs.Span.with_ ~name:"outer"
      ~attrs:(fun () -> [ ("k", "v") ])
      (fun () ->
        Obs.Span.with_ ~name:"inner.a" (fun () -> ());
        Obs.Span.with_ ~name:"inner.b" (fun () -> 7))
  in
  Obs.Span.disable ();
  checki "with_ returns the body's value" 7 r;
  let evs = Obs.Span.events () in
  checki "three spans" 3 (List.length evs);
  (* Completion order: children close before their parent. *)
  checks "completion order" "inner.a,inner.b,outer"
    (String.concat "," (List.map (fun (e : Obs.Span.event) -> e.Obs.Span.name) evs));
  let find name = List.find (fun (e : Obs.Span.event) -> e.Obs.Span.name = name) evs in
  let outer = find "outer" and a = find "inner.a" and b = find "inner.b" in
  checki "outer is a root" 0 outer.Obs.Span.depth;
  checkb "outer has no parent" true (outer.Obs.Span.parent = None);
  checkb "a parented at outer" true (a.Obs.Span.parent = Some outer.Obs.Span.id);
  checkb "b parented at outer" true (b.Obs.Span.parent = Some outer.Obs.Span.id);
  checki "children at depth 1" 1 a.Obs.Span.depth;
  (* Ids are allocation-ordered: outer opens first. *)
  checkb "outer id lowest" true
    (outer.Obs.Span.id < a.Obs.Span.id && a.Obs.Span.id < b.Obs.Span.id);
  checkb "attrs recorded" true (outer.Obs.Span.attrs = [ ("k", "v") ]);
  checkb "timings non-negative" true
    (List.for_all
       (fun (e : Obs.Span.event) -> e.Obs.Span.wall_s >= 0.0 && e.Obs.Span.cpu_s >= 0.0)
       evs)

let test_span_survives_exception () =
  Obs.Span.enable ();
  (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.Span.disable ();
  checki "span recorded despite raise" 1 (List.length (Obs.Span.events ()))

let test_disabled_is_noop () =
  Obs.Span.enable ();
  Obs.Span.disable ();
  checkb "disabled" false (Obs.Span.enabled ());
  let before = List.length (Obs.Span.events ()) in
  let attrs_evaluated = ref false in
  let v =
    Obs.Span.with_ ~name:"ghost"
      ~attrs:(fun () ->
        attrs_evaluated := true;
        [])
      (fun () -> 42)
  in
  checki "value passes through" 42 v;
  checki "no event recorded" before (List.length (Obs.Span.events ()));
  checkb "attrs thunk never forced" false !attrs_evaluated

let test_pp_tree_renders () =
  Obs.Span.enable ();
  Obs.Span.with_ ~name:"root" (fun () ->
      Obs.Span.with_ ~name:"child" (fun () -> ()));
  Obs.Span.disable ();
  let s = Format.asprintf "%a" Obs.Span.pp_tree (Obs.Span.events ()) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "root present" true (contains "root");
  checkb "child indented under root" true (contains "    child")

(* ---- metrics ---- *)

let test_counter_and_gauge () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter ~registry:r "a.count" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  checki "counter accumulates" 5 (Obs.Metrics.counter_value c);
  let g = Obs.Metrics.gauge ~registry:r "a.wall_s" in
  Obs.Metrics.add_gauge g 1.5;
  Obs.Metrics.add_gauge g 0.25;
  checkb "gauge accumulates" true (Obs.Metrics.gauge_value g = 1.75);
  let c' = Obs.Metrics.counter ~registry:r "a.count" in
  Obs.Metrics.incr c';
  checki "same name is same instrument" 6 (Obs.Metrics.counter_value c);
  checkb "kind clash rejected" true
    (try
       ignore (Obs.Metrics.gauge ~registry:r "a.count");
       false
     with Invalid_argument _ -> true);
  Obs.Metrics.reset r;
  checki "reset zeroes values" 0 (Obs.Metrics.counter_value c)

let test_histogram_bucket_determinism () =
  let values = [ 0.5; 1.5; 3.0; 7.0; 2.0; 1.0 ] in
  let snap_of values =
    let r = Obs.Metrics.create () in
    let h = Obs.Metrics.histogram ~registry:r ~edges:[| 1.0; 2.0; 5.0 |] "h" in
    List.iter (Obs.Metrics.observe h) values;
    match Obs.Metrics.snapshot r with
    | [ ("h", Obs.Metrics.Histogram s) ] -> s
    | _ -> Alcotest.fail "expected exactly one histogram"
  in
  let s = snap_of values in
  (* v <= edge picks the bucket; the last bucket is overflow. *)
  checkb "bucket counts" true (s.Obs.Metrics.counts = [| 2; 2; 1; 1 |]);
  checki "total count" 6 s.Obs.Metrics.count;
  let s' = snap_of (List.rev values) in
  checkb "observation order does not matter" true
    (s.Obs.Metrics.counts = s'.Obs.Metrics.counts
    && s.Obs.Metrics.count = s'.Obs.Metrics.count
    && s.Obs.Metrics.sum = s'.Obs.Metrics.sum);
  checkb "bad edges rejected" true
    (try
       ignore (Obs.Metrics.histogram ~edges:[| 2.0; 1.0 |] ~registry:(Obs.Metrics.create ()) "bad");
       false
     with Invalid_argument _ -> true)

(* ---- JSONL ---- *)

let test_json_roundtrip () =
  let j =
    Obs.Json.Obj
      [ ("s", Obs.Json.Str "a\"b\\c\nd");
        ("n", Obs.Json.Num 1.5);
        ("i", Obs.Json.Num 42.0);
        ("b", Obs.Json.Bool true);
        ("z", Obs.Json.Null);
        ("l", Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Str "x" ]) ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> checkb "round-trips" true (j = j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let read_jsonl path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

let test_metrics_jsonl_parses_back () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter ~registry:r "x.tiles") 12;
  Obs.Metrics.add_gauge (Obs.Metrics.gauge ~registry:r "x.wall_s") 0.5;
  Obs.Metrics.observe
    (Obs.Metrics.histogram ~registry:r ~edges:[| 1.0; 2.0 |] "x.cd_nm")
    1.5;
  let path = Filename.temp_file "obs_metrics" ".jsonl" in
  Obs.Metrics.save_jsonl_file path r;
  let lines = read_jsonl path in
  Sys.remove path;
  checki "one line per metric" 3 (List.length lines);
  let parsed =
    List.map
      (fun l ->
        match Obs.Json.parse l with
        | Ok j -> j
        | Error e -> Alcotest.fail ("bad metrics line: " ^ e))
      lines
  in
  let names =
    List.filter_map (fun j -> Option.bind (Obs.Json.member "name" j) Obs.Json.to_str)
      parsed
  in
  checks "sorted by name" "x.cd_nm,x.tiles,x.wall_s" (String.concat "," names);
  let counter =
    List.find
      (fun j -> Obs.Json.member "type" j = Some (Obs.Json.Str "counter"))
      parsed
  in
  checkb "counter value survives" true
    (Obs.Json.member "value" counter = Some (Obs.Json.Num 12.0))

let test_trace_jsonl_parses_back () =
  let path = Filename.temp_file "obs_trace" ".jsonl" in
  Obs.Span.stream_to path;
  Obs.Span.with_ ~name:"outer" (fun () ->
      Obs.Span.with_ ~name:"inner" (fun () -> ()));
  Obs.Span.disable ();
  let lines = read_jsonl path in
  Sys.remove path;
  checki "two span lines" 2 (List.length lines);
  List.iter
    (fun l ->
      match Obs.Json.parse l with
      | Ok j ->
          checkb "is a span" true (Obs.Json.member "type" j = Some (Obs.Json.Str "span"));
          checkb "has wall_s" true
            (match Option.bind (Obs.Json.member "wall_s" j) Obs.Json.to_float with
            | Some w -> w >= 0.0
            | None -> false)
      | Error e -> Alcotest.fail ("bad trace line: " ^ e))
    lines

(* ---- JSON edge cases ---- *)

let test_json_nested_roundtrip () =
  let j =
    Obs.Json.Obj
      [ ( "outer",
          Obs.Json.Obj
            [ ("arr", Obs.Json.Arr [ Obs.Json.Obj [ ("deep", Obs.Json.Arr [ Obs.Json.Arr [] ]) ];
                                     Obs.Json.Obj [] ]);
              ("empty", Obs.Json.Obj []) ] );
        ("tail", Obs.Json.Arr [ Obs.Json.Null; Obs.Json.Bool false ]) ]
  in
  match Obs.Json.parse (Obs.Json.to_string j) with
  | Ok j' -> checkb "nested obj/arr round-trips" true (j = j')
  | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_json_escapes () =
  let s = "quote\" back\\ slash/ nl\n cr\r tab\t ctl\x01\x02" in
  (match Obs.Json.parse (Obs.Json.to_string (Obs.Json.Str s)) with
  | Ok (Obs.Json.Str s') -> checks "escapes round-trip" s s'
  | Ok _ -> Alcotest.fail "string became a non-string"
  | Error e -> Alcotest.fail ("parse failed: " ^ e));
  checkb "\\u0041 decodes to A" true
    (Obs.Json.parse "\"\\u0041\"" = Ok (Obs.Json.Str "A"))

let test_json_nonfinite_emission () =
  (* JSON has no NaN/Infinity: non-finite Nums must serialise as null
     so the file stays parsable (by us and by everyone else). *)
  checks "nan -> null" "null" (Obs.Json.to_string (Obs.Json.Num Float.nan));
  checks "inf -> null" "null" (Obs.Json.to_string (Obs.Json.Num Float.infinity));
  checks "in context" "[null,null,1]"
    (Obs.Json.to_string
       (Obs.Json.Arr
          [ Obs.Json.Num Float.neg_infinity; Obs.Json.Num Float.nan; Obs.Json.Num 1.0 ]))

let test_json_parse_rejections () =
  List.iter
    (fun bad ->
      match Obs.Json.parse bad with
      | Ok _ -> Alcotest.failf "parse accepted %S" bad
      | Error _ -> ())
    [ "NaN"; "Infinity"; "-Infinity"; "1e999"; "[1e999]"; "{\"a\":1} x";
      "1 2"; "[1,]"; "{\"a\":}"; "\"unterminated" ]

(* ---- span record-on-raise nesting ---- *)

let test_span_raise_restores_nesting () =
  Obs.Span.enable ();
  (try
     Obs.Span.with_ ~name:"outer" (fun () ->
         (try Obs.Span.with_ ~name:"inner" (fun () -> failwith "inner boom")
          with Failure _ -> ());
         (* The stack must be back at "outer" here, or this span would
            be parented at the dead "inner". *)
         Obs.Span.with_ ~name:"sibling" (fun () -> ());
         failwith "outer boom")
   with Failure _ -> ());
  Obs.Span.disable ();
  let evs = Obs.Span.events () in
  checki "all three spans recorded" 3 (List.length evs);
  let find name = List.find (fun (e : Obs.Span.event) -> e.Obs.Span.name = name) evs in
  let outer = find "outer" and inner = find "inner" and sibling = find "sibling" in
  checkb "outer is a root" true (outer.Obs.Span.parent = None);
  checkb "inner parented at outer" true (inner.Obs.Span.parent = Some outer.Obs.Span.id);
  checkb "sibling parented at outer, not inner" true
    (sibling.Obs.Span.parent = Some outer.Obs.Span.id);
  checki "sibling depth restored" 1 sibling.Obs.Span.depth

let test_span_alloc_counted () =
  Obs.Span.enable ();
  Obs.Span.with_ ~name:"alloc" (fun () ->
      ignore (Sys.opaque_identity (Array.make 100_000 0.0)));
  Obs.Span.disable ();
  match Obs.Span.events () with
  | [ e ] ->
      checkb "alloc_w covers the 100k-word array" true (e.Obs.Span.alloc_w >= 100_000.0)
  | evs -> Alcotest.failf "expected one span, got %d" (List.length evs)

(* ---- profile attribution ---- *)

let ev ~id ?parent ~name ~wall ?(alloc = 0.0) () : Obs.Span.event =
  { Obs.Span.id; parent; depth = (match parent with None -> 0 | Some _ -> 1);
    name; attrs = []; domain = 0; start_s = 0.0; wall_s = wall; cpu_s = wall;
    alloc_w = alloc }

let test_profile_self_time () =
  let evs =
    [ ev ~id:0 ~name:"root" ~wall:1.0 ~alloc:1000.0 ();
      ev ~id:1 ~parent:0 ~name:"child" ~wall:0.3 ~alloc:400.0 ();
      ev ~id:2 ~parent:0 ~name:"child" ~wall:0.2 ~alloc:900.0 () ]
  in
  (match Obs.Profile.tree evs with
  | [ root ] ->
      checks "root name" "root" root.Obs.Profile.event.Obs.Span.name;
      checki "two children" 2 (List.length root.Obs.Profile.children);
      checkb "self wall = own - children" true
        (Float.abs (root.Obs.Profile.self_wall_s -. 0.5) < 1e-9);
      (* children allocated more than the parent recorded (multi-domain
         overlap): self allocation clamps at 0, never goes negative. *)
      checkb "self alloc clamped at 0" true (root.Obs.Profile.self_alloc_w = 0.0)
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots));
  let rows = Obs.Profile.aggregate evs in
  let row name = List.find (fun (r : Obs.Profile.row) -> r.Obs.Profile.name = name) rows in
  let child = row "child" in
  checki "child count aggregates" 2 child.Obs.Profile.count;
  checkb "child inclusive wall" true (Float.abs (child.Obs.Profile.wall_s -. 0.5) < 1e-9);
  checkb "leaf self = inclusive" true
    (Float.abs (child.Obs.Profile.self_wall_s -. 0.5) < 1e-9)

let test_profile_orphan_becomes_root () =
  (* A span whose parent is missing from the capture (still open when
     the slice was taken, as in the serve `profile` verb) must surface
     as a root, not vanish. *)
  let evs = [ ev ~id:5 ~parent:99 ~name:"orphan" ~wall:0.1 () ] in
  match Obs.Profile.tree evs with
  | [ root ] -> checks "orphan is a root" "orphan" root.Obs.Profile.event.Obs.Span.name
  | roots -> Alcotest.failf "expected one root, got %d" (List.length roots)

let test_profile_chrome_trace () =
  let evs =
    [ ev ~id:0 ~name:"root" ~wall:1.0 (); ev ~id:1 ~parent:0 ~name:"child" ~wall:0.25 () ]
  in
  let j = Obs.Profile.chrome_trace evs in
  (match Obs.Json.member "displayTimeUnit" j with
  | Some (Obs.Json.Str "ms") -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit");
  match Obs.Json.member "traceEvents" j with
  | Some (Obs.Json.Arr tes) ->
      checki "one trace event per span" 2 (List.length tes);
      List.iter
        (fun te ->
          checkb "complete event" true (Obs.Json.member "ph" te = Some (Obs.Json.Str "X"));
          checkb "has ts" true (Obs.Json.member "ts" te <> None);
          checkb "has dur" true (Obs.Json.member "dur" te <> None))
        tes;
      let dur0 = Option.bind (Obs.Json.member "dur" (List.hd tes)) Obs.Json.to_float in
      checkb "dur is microseconds" true (dur0 = Some 1e6)
  | _ -> Alcotest.fail "missing traceEvents"

(* ---- report: quantiles and derived figures ---- *)

let hist ~edges ~counts ~sum : Obs.Metrics.histogram_snapshot =
  { Obs.Metrics.edges; counts; count = Array.fold_left ( + ) 0 counts; sum }

let test_report_quantile () =
  let h = hist ~edges:[| 1.0; 2.0; 5.0 |] ~counts:[| 2; 2; 1; 1 |] ~sum:12.0 in
  let q p = Obs.Report.quantile h p in
  checkb "p50 interpolates inside bucket 2" true (Float.abs (q 0.5 -. 1.5) < 1e-9);
  checkb "q=1.0 hits the overflow bucket -> last edge" true (q 1.0 = 5.0);
  checkb "q clamps below 0" true (q (-1.0) <= 1.0);
  checkb "empty histogram -> 0" true
    (Obs.Report.quantile (hist ~edges:[| 1.0 |] ~counts:[| 0; 0 |] ~sum:0.0) 0.5 = 0.0);
  checkb "quantiles keyed p50/p95/p99" true
    (List.map fst (Obs.Report.quantiles h) = [ "p50"; "p95"; "p99" ])

let test_report_metric_roundtrip () =
  let metrics =
    [ ("a.count", Obs.Metrics.Counter 42);
      ("a.wall_s", Obs.Metrics.Gauge 1.5);
      ( "a.lat",
        Obs.Metrics.Histogram
          (hist ~edges:[| 0.5; 1.0; 2.0 |] ~counts:[| 2; 1; 0; 1 |] ~sum:4.25) ) ]
  in
  List.iter
    (fun (name, v) ->
      match Obs.Report.metric_of_json (Obs.Metrics.json_of_metric name v) with
      | Some (name', v') ->
          checks "name survives" name name';
          checkb ("value survives: " ^ name) true (v = v')
      | None -> Alcotest.fail ("metric_of_json rejected " ^ name))
    metrics

let test_report_derived () =
  let ms =
    [ ("exec.pool.p.busy_s", Obs.Metrics.Gauge 2.0);
      ("exec.pool.p.up_s", Obs.Metrics.Gauge 4.0);
      ("exec.pool.p.domains", Obs.Metrics.Gauge 2.0) ]
  in
  checkb "pool discovered" true (Obs.Report.pool_names ms = [ "p" ]);
  checkb "occupancy = busy/(up*domains)" true
    (Obs.Report.pool_occupancy ~pool:"p" ms = Some 0.25);
  checkb "occupancy needs up_s" true
    (Obs.Report.pool_occupancy ~pool:"p"
       [ ("exec.pool.p.busy_s", Obs.Metrics.Gauge 2.0) ]
    = None)

(* ---- worker-count independence of flow metrics ---- *)

let test_flow_metrics_domain_independent () =
  let config domains =
    let c = Timing_opc.Flow.default_config () in
    {
      c with
      Timing_opc.Flow.opc_config =
        { c.Timing_opc.Flow.opc_config with Opc.Model_opc.iterations = 2 };
      slices = 3;
      domains;
    }
  in
  (* Warm the global litho-model cache so both measured runs see the
     same call pattern (calibration simulates only on the first run). *)
  ignore (Timing_opc.Flow.run (config 1) (Circuit.Generator.c17 ()));
  let deterministic_metrics domains =
    Obs.Metrics.reset Obs.Metrics.global;
    ignore (Timing_opc.Flow.run (config domains) (Circuit.Generator.c17 ()));
    Obs.Metrics.snapshot Obs.Metrics.global
    |> List.filter_map (fun (name, v) ->
           (* Gauges carry wall time and exec.pool.* exists only when a
              pool is created; both are exempt from the contract. *)
           if String.length name >= 10 && String.sub name 0 10 = "exec.pool." then None
           else
             match v with
             | Obs.Metrics.Counter n -> Some (name, `C n)
             | Obs.Metrics.Gauge _ -> None
             | Obs.Metrics.Histogram h ->
                 Some (name, `H (h.Obs.Metrics.edges, h.Obs.Metrics.counts, h.Obs.Metrics.count)))
  in
  let a = deterministic_metrics 1 in
  let b = deterministic_metrics 2 in
  checkb "at least ten metric names" true (List.length a >= 10);
  checkb "counters and buckets identical at domains 1 vs 2" true (a = b)

(* [potx run --metrics] records the process's peak RSS as a gauge
   where /proc/self/status exists, and omits it elsewhere. *)
let test_peak_rss_gauge () =
  let path = Filename.temp_file "potx_metrics" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let cmd =
    Printf.sprintf "../bin/potx.exe run --bench c17 --metrics %s > /dev/null 2>&1"
      (Filename.quote path)
  in
  checki "potx run exits 0" 0 (Sys.command cmd);
  let rss = Obs.Report.gauge_of "process.peak_rss_mb" (Obs.Report.read_jsonl_file path) in
  if Sys.file_exists "/proc/self/status" then
    checkb "process.peak_rss_mb present and positive" true
      (match rss with Some mb -> mb > 0.0 | None -> false)
  else checkb "process.peak_rss_mb omitted" true (rss = None)

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "raise still records" `Quick test_span_survives_exception;
          Alcotest.test_case "raise restores nesting" `Quick
            test_span_raise_restores_nesting;
          Alcotest.test_case "alloc_w counted" `Quick test_span_alloc_counted;
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "pp_tree" `Quick test_pp_tree_renders;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter/gauge" `Quick test_counter_and_gauge;
          Alcotest.test_case "histogram determinism" `Quick test_histogram_bucket_determinism;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "nested roundtrip" `Quick test_json_nested_roundtrip;
          Alcotest.test_case "escapes" `Quick test_json_escapes;
          Alcotest.test_case "non-finite emits null" `Quick test_json_nonfinite_emission;
          Alcotest.test_case "parser rejections" `Quick test_json_parse_rejections;
          Alcotest.test_case "metrics parse back" `Quick test_metrics_jsonl_parses_back;
          Alcotest.test_case "trace parses back" `Quick test_trace_jsonl_parses_back;
        ] );
      ( "profile",
        [
          Alcotest.test_case "self-time attribution" `Quick test_profile_self_time;
          Alcotest.test_case "orphan becomes root" `Quick test_profile_orphan_becomes_root;
          Alcotest.test_case "chrome trace" `Quick test_profile_chrome_trace;
        ] );
      ( "report",
        [
          Alcotest.test_case "quantile" `Quick test_report_quantile;
          Alcotest.test_case "metric json roundtrip" `Quick test_report_metric_roundtrip;
          Alcotest.test_case "derived figures" `Quick test_report_derived;
          Alcotest.test_case "peak rss gauge" `Slow test_peak_rss_gauge;
        ] );
      ( "flow",
        [
          Alcotest.test_case "metrics at domains 1 vs 2" `Slow
            test_flow_metrics_domain_independent;
        ] );
    ]
