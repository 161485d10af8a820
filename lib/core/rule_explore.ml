module G = Geometry

type knob = Poly_pitch | Poly_endcap | Gate_length

let knob_name = function
  | Poly_pitch -> "poly_pitch"
  | Poly_endcap -> "poly_endcap"
  | Gate_length -> "gate_length"

type sample = {
  knob : knob;
  value : int;
  cell_area_um2 : float;
  opc_rms_epe : float;
  orc_violations : int;
  cd_mean : float;
  cd_sigma : float;
  printed_fraction : float;
}

let apply_knob (tech : Layout.Tech.t) knob value =
  let name = Printf.sprintf "%s_%s%d" tech.Layout.Tech.name (knob_name knob) value in
  match knob with
  | Poly_pitch -> { tech with Layout.Tech.name; poly_pitch = value }
  | Poly_endcap -> { tech with Layout.Tech.name; poly_endcap = value }
  | Gate_length -> { tech with Layout.Tech.name; gate_length = value }

let reference_cells = [ "INV_X1"; "NAND2_X1"; "NOR2_X1" ]

let cell_area_um2 tech =
  List.fold_left
    (fun acc name ->
      let c = Layout.Stdcell.find tech name in
      acc +. (float_of_int (c.Layout.Cell.width * c.Layout.Cell.height) /. 1.0e6))
    0.0 reference_cells

let evaluate (config : Flow.config) knob value ~block =
  let tech = apply_knob config.Flow.tech knob value in
  let config = { config with Flow.tech } in
  let litho = Flow.litho_model config in
  let rng = Stats.Rng.create config.Flow.seed in
  let chip = Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:block in
  let opc_config = Opc.Model_opc.default_config tech in
  let mask, _ =
    Opc.Chip_opc.correct litho (Opc.Chip_opc.Model opc_config) chip ~tile:config.Flow.tile
  in
  (* Printability: ORC at nominal over the die. *)
  let drawn = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  let window =
    match Layout.Chip.die chip with
    | Some d -> d
    | None -> invalid_arg "Rule_explore: empty block"
  in
  let orc_config =
    { (Opc.Orc.default_config tech) with
      Opc.Orc.conditions = [ Litho.Condition.nominal ] }
  in
  let orc = Opc.Orc.verify litho orc_config ~mask ~drawn ~window in
  (* Extraction at the silicon condition. *)
  let cds =
    Cdex.Extract.extract litho [ config.Flow.condition ]
      ~mask:(Opc.Mask.source mask) ~gates:(Layout.Chip.gates chip)
      ~slices:config.Flow.slices ~tile:config.Flow.tile ()
    |> List.hd
  in
  let printed = List.filter (fun c -> c.Cdex.Gate_cd.printed) cds in
  let vals = Array.of_list (List.map Cdex.Gate_cd.mean_cd printed) in
  let s = Stats.Summary.of_array vals in
  {
    knob;
    value;
    cell_area_um2 = cell_area_um2 tech;
    opc_rms_epe = orc.Opc.Orc.rms_epe;
    orc_violations = List.length orc.Opc.Orc.violations;
    cd_mean = s.Stats.Summary.mean;
    cd_sigma = s.Stats.Summary.std;
    printed_fraction =
      float_of_int (List.length printed) /. float_of_int (List.length cds);
  }

let sweep config knob ~values ~block =
  List.map (fun value -> evaluate config knob value ~block) values

let pp_table ppf samples =
  match samples with
  | [] -> ()
  | first :: _ ->
      let rows =
        List.map
          (fun s ->
            [ string_of_int s.value;
              Printf.sprintf "%.3f" s.cell_area_um2;
              Report.nm s.opc_rms_epe;
              string_of_int s.orc_violations;
              Report.nm s.cd_mean;
              Report.nm s.cd_sigma;
              Report.pct s.printed_fraction ])
          samples
      in
      Report.table ppf
        ~title:(Printf.sprintf "design-rule sweep: %s" (knob_name first.knob))
        ~header:[ "value_nm"; "area_um2"; "rmsEPE"; "orc_viol"; "meanCD"; "sigmaCD"; "printed" ]
        rows
