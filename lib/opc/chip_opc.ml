module G = Geometry

type style = None_ | Rule of Rule_opc.recipe | Model of Model_opc.config

let zero_stats =
  { Model_opc.iterations_run = 0; max_epe = 0.0; rms_epe = 0.0; sites = 0; unresolved = 0 }

(* Assign each polygon to the tile containing its bbox centre; context
   of a tile is every polygon within the litho halo of the tile. *)
let tiles_of die ~tile =
  let nx = max 1 ((G.Rect.width die + tile - 1) / tile) in
  let ny = max 1 ((G.Rect.height die + tile - 1) / tile) in
  List.concat
    (List.init nx (fun ix ->
         List.init ny (fun iy ->
             G.Rect.make
               ~lx:(die.G.Rect.lx + (ix * tile))
               ~ly:(die.G.Rect.ly + (iy * tile))
               ~hx:(min die.G.Rect.hx (die.G.Rect.lx + ((ix + 1) * tile)))
               ~hy:(min die.G.Rect.hy (die.G.Rect.ly + ((iy + 1) * tile))))))

(* Correct the poly shapes [want] selects, tile by tile, against the
   frozen drawn context within the litho halo.  The spatial index and
   the drawn items are read-only once built, so tiles are independent
   pool tasks (canonical tile order on one domain without a pool).  A
   polygon whose centre sits on a shared tile edge is a target of both
   tiles (Rect.contains_point is closed); applying overwrites in
   canonical tile order keeps the later tile's result, so the mask and
   merged stats are byte-identical for any worker count. *)
let model_correct ?pool litho_model config chip ~tile ~want =
  let items = Array.of_list (Layout.Chip.flatten_layer chip Layout.Layer.Poly) in
  let index = G.Spatial.create ~bucket:4000 in
  Array.iteri (fun i p -> G.Spatial.insert index (G.Polygon.bbox p) i) items;
  let die =
    match Layout.Chip.die chip with
    | Some d -> d
    | None -> invalid_arg "Chip_opc: empty chip"
  in
  let correct_tile t =
    let centre_in i =
      G.Rect.contains_point t (G.Rect.center (G.Polygon.bbox items.(i)))
    in
    let target_ids =
      G.Spatial.query index t |> List.map snd
      |> List.filter (fun i -> centre_in i && want items.(i))
      |> List.sort_uniq Int.compare
    in
    if target_ids = [] then None
    else begin
      let targets = List.map (fun i -> items.(i)) target_ids in
      let in_targets i = List.mem i target_ids in
      let context =
        G.Spatial.query index (G.Rect.inflate t litho_model.Litho.Model.halo)
        |> List.filter_map (fun (_, i) ->
               if in_targets i then None else Some items.(i))
      in
      let fixed, stats = Model_opc.correct litho_model config ~targets ~context in
      Some (List.combine target_ids fixed, stats)
    end
  in
  let tiles = tiles_of die ~tile in
  let per_tile =
    List.filter_map Fun.id
      (match pool with
      | None -> List.map correct_tile tiles
      | Some pool -> Exec.Pool.map_list ~label:"opc.tiles" pool correct_tile tiles)
  in
  let corrected = Array.copy items in
  List.iter
    (fun (overwrites, _) -> List.iter (fun (i, q) -> corrected.(i) <- q) overwrites)
    per_tile;
  (corrected, Model_opc.merge_stats (List.map snd per_tile))

let correct ?pool litho_model style chip ~tile =
  let polys = Layout.Chip.flatten_layer chip Layout.Layer.Poly in
  match style with
  | None_ -> (Mask.of_polygons polys, zero_stats)
  | Rule recipe ->
      let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
      (Rule_opc.correct recipe ~neighbours polys, zero_stats)
  | Model config ->
      let corrected, stats =
        model_correct ?pool litho_model config chip ~tile ~want:(fun _ -> true)
      in
      (Mask.of_polygons (Array.to_list corrected), stats)

let correct_selective ?pool litho_model config recipe chip ~tile ~selected =
  (* Gate-touching test: a polygon is "selected" when it intersects the
     drawn gate region of any selected transistor. *)
  let gate_index = G.Spatial.create ~bucket:4000 in
  List.iter
    (fun (g : Layout.Chip.gate_ref) ->
      G.Spatial.insert gate_index g.Layout.Chip.gate ())
    selected;
  let touches_selected p =
    let bb = G.Polygon.bbox p in
    G.Spatial.query gate_index bb <> []
  in
  let corrected, stats =
    model_correct ?pool litho_model config chip ~tile ~want:touches_selected
  in
  (* Rule-bias the untouched shapes. *)
  let neighbours window = Layout.Chip.shapes_in chip Layout.Layer.Poly window in
  let final =
    Array.to_list corrected
    |> List.map (fun p ->
           if touches_selected p then p
           else
             match Rule_opc.correct recipe ~neighbours [ p ] |> Mask.polygons with
             | [ q ] -> q
             | _ -> p)
  in
  (Mask.of_polygons final, stats)
