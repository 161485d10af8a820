(* T3 — Gate CD through the process window on the model-OPC mask.
   Paper dependency: "calibrated to silicon" CDs vary with the actual
   exposure condition; the dose/defocus grid is the envelope that the
   corner timing model compresses into two numbers. *)

let run () =
  Common.section "T3: gate CD through the process window (model OPC)";
  let chip = Common.layout_block ~n:(if !Common.quick then 40 else 120) in
  let mask, _ = Common.mask_for chip ~style_name:"model" in
  let conditions =
    if !Common.quick then
      Litho.Condition.grid ~dose_range:(0.96, 1.04) ~dose_steps:2
        ~defocus_range:(0.0, 120.0) ~defocus_steps:2
    else
      Litho.Condition.grid ~dose_range:(0.96, 1.04) ~dose_steps:3
        ~defocus_range:(0.0, 120.0) ~defocus_steps:3
  in
  (* One extraction over the whole grid: each tile is simulated once
     per defocus and thresholded at every dose. *)
  let rows =
    List.map2
      (fun condition cds ->
        let printed = List.filter (fun c -> c.Cdex.Gate_cd.printed) cds in
        let vals = Array.of_list (List.map Cdex.Gate_cd.mean_cd printed) in
        let s = Stats.Summary.of_array vals in
        [ Printf.sprintf "%.2f" condition.Litho.Condition.dose;
          Printf.sprintf "%.0f" condition.Litho.Condition.defocus;
          Printf.sprintf "%.1f%%"
            (100.0 *. float_of_int (List.length printed) /. float_of_int (List.length cds));
          Timing_opc.Report.nm s.Stats.Summary.mean;
          Timing_opc.Report.nm s.Stats.Summary.std;
          Timing_opc.Report.nm s.Stats.Summary.min;
          Timing_opc.Report.nm s.Stats.Summary.max ])
      conditions
      (Common.extract chip mask conditions)
  in
  Timing_opc.Report.table Common.ppf
    ~title:"printed gate CD per (dose, defocus) condition"
    ~header:[ "dose"; "defocus"; "printed"; "meanCD"; "sigma"; "min"; "max" ]
    rows
