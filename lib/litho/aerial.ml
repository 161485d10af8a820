module G = Geometry

let m_simulations = Obs.Metrics.counter "litho.simulations"

let mask_raster (model : Model.t) ~window polygons =
  let raster =
    Raster.of_window ~window ~halo:model.Model.halo ~step:model.Model.step
  in
  (* Clamp while painting: overlapping input shapes (e.g. a strap
     joining a stripe) must not double-expose the mask.  Clamping
     inside each rect's touched span is bit-identical to a final
     whole-raster clamp (contributions are non-negative) without
     scanning the nx*ny pixels a sparse tile never paints.  Parts of
     a shape past the raster are clipped away by [paint_rect]. *)
  List.iter (Raster.paint_polygon ~clamp:true raster) polygons;
  raster

(* Each kernel's blur is added into the image in kernel order by the
   fused kernel, through one scratch shared by the whole stack.  The
   image is fresh on every call: [per_defocus] and the callers keep it. *)
let convolve (model : Model.t) (condition : Condition.t) mask =
  let intensity = Raster.like mask in
  let scratch = Blur.scratch mask in
  List.iter
    (fun (k : Model.kernel) ->
      let sigma = Model.effective_sigma model k ~defocus:condition.Condition.defocus in
      Blur.add_gaussian scratch ~dst:intensity ~w:k.Model.weight
        ~sigma_px:(sigma /. model.Model.step) mask)
    model.Model.kernels;
  intensity

let simulate (model : Model.t) (condition : Condition.t) ~window
    polygons =
  Obs.Span.with_ ~name:"litho.simulate"
    ~attrs:(fun () -> [ ("polygons", string_of_int (List.length polygons)) ])
  @@ fun () ->
  Obs.Metrics.incr m_simulations;
  convolve model condition (mask_raster model ~window polygons)

let per_defocus model ~window polygons =
  let images = ref [] in
  fun (c : Condition.t) ->
    match List.assoc_opt c.Condition.defocus !images with
    | Some image -> image
    | None ->
        let image = simulate model c ~window polygons in
        images := (c.Condition.defocus, image) :: !images;
        image

let calibrate (model : Model.t) (tech : Layout.Tech.t) =
  (* Reference pattern: a dense array of vertical lines at drawn gate
     length and contacted pitch.  The printed edge sits where the
     intensity equals the threshold, so the intensity at the drawn edge
     position is exactly the threshold that pins printed CD = drawn. *)
  let l = tech.Layout.Tech.gate_length in
  let pitch = tech.Layout.Tech.poly_pitch in
  let nlines = 9 in
  let height = 4000 in
  let lines =
    List.init nlines (fun i ->
        let xc = pitch * i in
        G.Polygon.of_rect
          (G.Rect.make ~lx:(xc - (l / 2)) ~ly:0 ~hx:(xc + (l / 2)) ~hy:height))
  in
  let center = pitch * (nlines / 2) in
  let window =
    G.Rect.make ~lx:(center - pitch)
      ~ly:((height / 2) - 500)
      ~hx:(center + pitch)
      ~hy:((height / 2) + 500)
  in
  let intensity = simulate model Condition.nominal ~window lines in
  let edge_x = float_of_int center +. (float_of_int l /. 2.0) in
  let threshold = Raster.sample intensity edge_x (float_of_int (height / 2)) in
  Model.with_threshold model threshold
