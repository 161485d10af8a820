(* Experiment harness: regenerates every table (T1-T4) and figure
   (F1-F6) of the reproduced evaluation.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- --quick      # smaller workloads
     dune exec bench/main.exe -- t4 f1        # a subset

   Unknown flags and experiment names exit 2.  See DESIGN.md for the
   experiment index and EXPERIMENTS.md for paper-vs-measured records;
   performance is measured by perfbench/, not here. *)

let experiments =
  [ ("t1", Exp_t1.run); ("t2", Exp_t2.run); ("t3", Exp_t3.run); ("t4", Exp_t4.run);
    ("f1", Exp_f1.run); ("f2", Exp_f2.run); ("f3", Exp_f3.run); ("f4", Exp_f4.run);
    ("f5", Exp_f5.run); ("f6", Exp_f6.run); ("dr", Exp_dr.run);
    ("hs", Exp_hs.run); ("rt", Exp_rt.run); ("seq", Exp_seq.run);
    ("ab", Exp_ab.run) ]

let flags = [ "--quick" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let given, names = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  List.iter
    (fun f ->
      if not (List.mem f flags) then begin
        Format.eprintf "unknown flag %s (have: %s)@." f (String.concat " " flags);
        exit 2
      end)
    given;
  if List.mem "--quick" given then Common.quick := true;
  let selected =
    match names with
    | [] -> List.map fst experiments
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n experiments) then begin
              Format.eprintf "unknown experiment %s (have: %s)@." n
                (String.concat " " (List.map fst experiments));
              exit 2
            end)
          names;
        names
  in
  Format.printf "post-OPC timing reproduction bench (seed %d%s)@." Common.seed
    (if !Common.quick then ", quick mode" else "");
  let t0 = Unix.gettimeofday () in
  List.iter (fun name -> List.assoc name experiments ()) selected;
  Format.printf "@.total wall time: %.1fs@." (Unix.gettimeofday () -. t0)
