module G = Geometry

let tech = Layout.Tech.node90

let checkb = Alcotest.(check bool)

let checkf eps msg a b = Alcotest.(check (float eps)) msg a b

(* Calibrated model shared by the suite (calibration itself is a test). *)
let model = lazy (Litho.Aerial.calibrate (Litho.Model.create ()) tech)

(* ---- Condition ---- *)

let test_condition_grid () =
  let g =
    Litho.Condition.grid ~dose_range:(0.95, 1.05) ~dose_steps:3
      ~defocus_range:(0.0, 100.0) ~defocus_steps:3
  in
  Alcotest.(check int) "9 conditions" 9 (List.length g);
  checkb "contains nominal dose" true
    (List.exists (fun c -> c.Litho.Condition.dose = 1.0) g)

let test_condition_corners () =
  let cs = Litho.Condition.corners ~dose_range:(0.9, 1.1) ~defocus_range:(0.0, 150.0) in
  Alcotest.(check int) "nominal + 4" 5 (List.length cs)

let test_condition_invalid () =
  Alcotest.check_raises "zero dose" (Invalid_argument "Condition.make: dose must be positive")
    (fun () -> ignore (Litho.Condition.make ~dose:0.0 ~defocus:0.0))

(* ---- Raster ---- *)

let test_raster_paint_coverage () =
  let r = Raster_helpers.raster_100 () in
  (* Rect covering exactly 4 pixels fully. *)
  Litho.Raster.paint_rect r (G.Rect.make ~lx:10 ~ly:10 ~hx:20 ~hy:20);
  checkf 1e-9 "full pixel" 1.0 (Litho.Raster.get r 2 2);
  checkf 1e-9 "outside" 0.0 (Litho.Raster.get r 7 7)

let test_raster_paint_subpixel () =
  let r = Raster_helpers.raster_100 () in
  (* Half-pixel-wide rect: coverage 0.5. *)
  Litho.Raster.paint_rect r (G.Rect.make ~lx:10 ~ly:10 ~hx:12 ~hy:15);
  checkf 1e-9 "fractional coverage" (2.0 /. 5.0 *. 1.0) (Litho.Raster.get r 2 2)

let test_raster_total_mass () =
  let r = Raster_helpers.raster_100 () in
  let rect = G.Rect.make ~lx:7 ~ly:13 ~hx:44 ~hy:61 in
  Litho.Raster.paint_rect r rect;
  let total = ref 0.0 in
  for iy = 0 to Litho.Raster.ny r - 1 do
    for ix = 0 to Litho.Raster.nx r - 1 do
      total := !total +. Litho.Raster.get r ix iy
    done
  done;
  (* Mass in pixel units: area / step^2. *)
  checkf 1e-6 "mass conserved"
    (float_of_int (G.Rect.area rect) /. 25.0)
    !total

let test_raster_sample_bilinear () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 2 2 1.0;
  (* Sampling exactly at the pixel centre returns the value. *)
  checkf 1e-9 "at centre" 1.0 (Litho.Raster.sample r 12.5 12.5);
  (* Halfway to the next (zero) pixel centre: 0.5. *)
  checkf 1e-9 "halfway" 0.5 (Litho.Raster.sample r 15.0 12.5)

let test_raster_blend () =
  let a = Raster_helpers.raster_100 () in
  let b = Raster_helpers.raster_100 () in
  Litho.Raster.set b 1 1 2.0;
  Litho.Raster.blend ~dst:a ~src:b ~w:0.25;
  checkf 1e-9 "blended" 0.5 (Litho.Raster.get a 1 1)

(* ---- Blur ---- *)

let test_box_sizes_variance () =
  (* Iterated box variance should match the Gaussian within a pixel. *)
  let sigma = 9.0 in
  let sizes = Litho.Blur.box_sizes ~sigma ~passes:3 in
  let var =
    Array.fold_left
      (fun acc w -> acc +. (float_of_int ((w * w) - 1) /. 12.0))
      0.0 sizes
  in
  checkb "variance close" true (Float.abs (var -. (sigma *. sigma)) < 2.0 *. sigma)

(* [G(r)] through the fused kernel: the blur added into a zero image. *)
let blurred r ~sigma_px =
  let dst = Litho.Raster.like r in
  Litho.Blur.add_gaussian (Litho.Blur.scratch r) ~dst ~w:1.0 ~sigma_px r;
  dst

let test_blur_conserves_mass () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 10 10 100.0;
  let r = blurred r ~sigma_px:2.0 in
  let total = ref 0.0 in
  for iy = 0 to Litho.Raster.ny r - 1 do
    for ix = 0 to Litho.Raster.nx r - 1 do
      total := !total +. Litho.Raster.get r ix iy
    done
  done;
  (* Zero padding loses only the tail beyond the border. *)
  checkb "mass approximately conserved" true (Float.abs (!total -. 100.0) < 1.0)

let test_blur_spreads () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 10 10 1.0;
  let r = blurred r ~sigma_px:1.5 in
  checkb "peak reduced" true (Litho.Raster.get r 10 10 < 1.0);
  checkb "neighbour raised" true (Litho.Raster.get r 11 10 > 0.0)

let test_blur_identity_for_tiny_sigma () =
  let r = Raster_helpers.raster_100 () in
  Litho.Raster.set r 5 5 1.0;
  let r = blurred r ~sigma_px:0.1 in
  checkf 1e-9 "untouched" 1.0 (Litho.Raster.get r 5 5)

(* The column-strided blur the row-major vertical pass replaced, kept
   as the bit-identity reference.  One sliding-window box pass of odd
   width [w] over [len] pixels [stride] apart from [base], summed into
   [tmp] and written back: rows are stride 1, columns stride nx. *)
let ref_box data ~base ~stride ~len w =
  let r = (w - 1) / 2 and inv = 1.0 /. float_of_int w in
  let at i = data.(base + (i * stride)) in
  let tmp = Array.make len 0.0 and acc = ref 0.0 in
  for i = 0 to min (len - 1) r do
    acc := !acc +. at i
  done;
  for i = 0 to len - 1 do
    tmp.(i) <- !acc *. inv;
    if i + r + 1 < len then acc := !acc +. at (i + r + 1);
    if i - r >= 0 then acc := !acc -. at (i - r)
  done;
  Array.iteri (fun i v -> data.(base + (i * stride)) <- v) tmp

let ref_gaussian raster ~sigma_px =
  if sigma_px > 0.25 then begin
    let data = Litho.Raster.unsafe_data raster in
    let nx = Litho.Raster.nx raster and ny = Litho.Raster.ny raster in
    let sizes = Litho.Blur.box_sizes ~sigma:sigma_px ~passes:3 in
    let passes w ~lines ~base ~stride ~len =
      if w > 1 then
        for k = 0 to lines - 1 do
          ref_box data ~base:(base k) ~stride ~len w
        done
    in
    Array.iter (fun w -> passes w ~lines:ny ~base:(fun iy -> iy * nx) ~stride:1 ~len:nx) sizes;
    Array.iter (fun w -> passes w ~lines:nx ~base:Fun.id ~stride:nx ~len:ny) sizes
  end

let same_bits a b =
  let a = Litho.Raster.unsafe_data a and b = Litho.Raster.unsafe_data b in
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let random_raster rng ~nx ~ny ~lo ~hi =
  let r = Litho.Raster.create ~origin:G.Point.origin ~step:5.0 ~nx ~ny in
  for iy = 0 to ny - 1 do
    for ix = 0 to nx - 1 do
      Litho.Raster.set r ix iy (lo +. Random.State.float rng (hi -. lo))
    done
  done;
  r

(* The kernel weights the model blends with, raw and normalised; the
   raw mid-range lobe is the negative -0.28. *)
let kernel_weights =
  List.map (fun (k : Litho.Model.kernel) -> k.Litho.Model.weight)
    (Litho.Model.default_kernels @ (Litho.Model.create ()).Litho.Model.kernels)

(* The fused kernel adds [w * G(src)] into a non-zero image, bit for
   bit as the reference blur of a copy followed by [Raster.blend].
   sigma 0.6 px gives box widths [1; 1; 3] (width-1 passes are
   skipped); sigma 60 px gives boxes wider than any raster here. *)
let blur_matches_reference =
  QCheck.Test.make ~name:"matches column-strided reference"
    ~count:200
    QCheck.(
      make
        ~print:(fun ((nx, ny), (sigma, w), seed) ->
          Printf.sprintf "nx=%d ny=%d sigma=%g w=%g seed=%d" nx ny sigma w seed)
        Gen.(
          triple
            (pair
               (oneof [ return 1; int_range 1 48 ])
               (oneof [ return 1; int_range 1 48 ]))
            (pair (oneofl [ 0.6; 9.0; 24.0; 60.0 ]) (oneofl kernel_weights))
            int))
    (fun ((nx, ny), (sigma, w), seed) ->
      let rng = Random.State.make [| seed |] in
      let src = random_raster rng ~nx ~ny ~lo:0.0 ~hi:1.0 in
      let dst = random_raster rng ~nx ~ny ~lo:(-0.5) ~hi:1.5 in
      let src0 = Litho.Raster.copy src and expected = Litho.Raster.copy dst in
      let reference = Litho.Raster.copy src in
      ref_gaussian reference ~sigma_px:sigma;
      Litho.Raster.blend ~dst:expected ~src:reference ~w;
      Litho.Blur.add_gaussian (Litho.Blur.scratch src) ~dst ~w ~sigma_px:sigma src;
      same_bits dst expected && same_bits src src0)

(* ---- Model / Aerial ---- *)

let test_calibration_prints_on_target () =
  let m = Lazy.force model in
  checkb "threshold in range" true
    (m.Litho.Model.threshold > 0.2 && m.Litho.Model.threshold < 0.8);
  (* Dense array prints at drawn CD by construction. *)
  let l = tech.Layout.Tech.gate_length and pitch = tech.Layout.Tech.poly_pitch in
  let lines =
    List.init 9 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:((pitch * i) - (l / 2)) ~ly:0 ~hx:((pitch * i) + (l / 2)) ~hy:4000))
  in
  let window = G.Rect.make ~lx:(pitch * 3) ~ly:1500 ~hx:(pitch * 5) ~hy:2500 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window lines in
  match
    Litho.Metrology.cd_horizontal img ~threshold:m.Litho.Model.threshold ~y:2000.0
      ~x_center:(float_of_int (pitch * 4)) ~search:200.0
  with
  | Some cd -> checkf 0.5 "dense CD = drawn" (float_of_int l) cd
  | None -> Alcotest.fail "line did not print"

let line_cd ?(conditions = Litho.Condition.nominal) polygons x =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(x - 400) ~ly:1500 ~hx:(x + 400) ~hy:2500 in
  let img = Litho.Aerial.simulate m conditions ~window polygons in
  Litho.Metrology.cd_horizontal img
    ~threshold:(Litho.Model.printed_threshold m conditions)
    ~y:2000.0 ~x_center:(float_of_int x) ~search:200.0

let iso_line =
  [ G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:4000) ]

let test_iso_dense_bias () =
  let dense =
    List.init 9 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:((350 * (i - 4)) - 45) ~ly:0 ~hx:((350 * (i - 4)) + 45) ~hy:4000))
  in
  match (line_cd dense 0, line_cd iso_line 0) with
  | Some cd_dense, Some cd_iso ->
      checkb "proximity changes CD" true (Float.abs (cd_dense -. cd_iso) > 0.5)
  | _ -> Alcotest.fail "features did not print"

let test_dose_monotonic () =
  let cd_at dose =
    match line_cd ~conditions:(Litho.Condition.make ~dose ~defocus:0.0) iso_line 0 with
    | Some cd -> cd
    | None -> Alcotest.fail "no print"
  in
  checkb "higher dose widens" true (cd_at 1.05 > cd_at 1.0);
  checkb "lower dose narrows" true (cd_at 0.95 < cd_at 1.0)

let test_defocus_shrinks () =
  let cd_at defocus =
    match line_cd ~conditions:(Litho.Condition.make ~dose:1.0 ~defocus) iso_line 0 with
    | Some cd -> cd
    | None -> Alcotest.fail "no print"
  in
  checkb "defocus shrinks line" true (cd_at 150.0 < cd_at 0.0)

let test_line_end_pullback () =
  let m = Lazy.force model in
  (* A line ending at y = 2000: the printed end pulls back. *)
  let lines = [ G.Polygon.of_rect (G.Rect.make ~lx:(-45) ~ly:0 ~hx:45 ~hy:2000) ] in
  let window = G.Rect.make ~lx:(-400) ~ly:1200 ~hx:400 ~hy:2600 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window lines in
  match
    Litho.Metrology.edge_from img ~threshold:m.Litho.Model.threshold ~x:0.0 ~y:1500.0
      ~dx:0.0 ~dy:1.0 ~search:600.0
  with
  | Some d ->
      let printed_end = 1500.0 +. d in
      checkb "end pulls back" true (printed_end < 2000.0);
      checkb "pullback sane (< 120nm)" true (2000.0 -. printed_end < 120.0)
  | None -> Alcotest.fail "no line end found"

let test_mask_raster_clamped () =
  let m = Lazy.force model in
  (* Two overlapping rects must not exceed coverage 1. *)
  let shapes =
    [ G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200);
      G.Polygon.of_rect (G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200) ]
  in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:200 ~hy:200 in
  let mask = Litho.Aerial.mask_raster m ~window shapes in
  checkb "clamped" true (Litho.Raster.max_value mask <= 1.0 +. 1e-9)

(* ---- Metrology ---- *)

let test_epe_sign () =
  let m = Lazy.force model in
  (* Narrow mask: prints narrower than a wide target edge -> negative EPE. *)
  let mask = [ G.Polygon.of_rect (G.Rect.make ~lx:(-35) ~ly:0 ~hx:35 ~hy:4000) ] in
  let window = G.Rect.make ~lx:(-400) ~ly:1500 ~hx:400 ~hy:2500 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window mask in
  (* Target edge at x = 45 (as if drawn 90nm), outward normal +x. *)
  match
    Litho.Metrology.epe img ~threshold:m.Litho.Model.threshold ~x:45.0 ~y:2000.0
      ~nx:1.0 ~ny:0.0 ~search:100.0
  with
  | Some e -> checkb "pullback negative" true (e < 0.0)
  | None -> Alcotest.fail "no edge"

let test_cd_not_printed () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-200) ~ly:0 ~hx:200 ~hy:400 in
  let img = Litho.Aerial.simulate m Litho.Condition.nominal ~window [] in
  checkb "empty mask: no CD" true
    (Litho.Metrology.cd_horizontal img ~threshold:0.5 ~y:200.0 ~x_center:0.0
       ~search:100.0
    = None)

(* ---- Contour ---- *)

let test_contour_square () =
  let r = Litho.Raster.create ~origin:G.Point.origin ~step:1.0 ~nx:40 ~ny:40 in
  (* Fill a 10x10 block of pixels. *)
  for iy = 10 to 19 do
    for ix = 10 to 19 do
      Litho.Raster.set r ix iy 1.0
    done
  done;
  let contours = Litho.Contour.trace r ~threshold:0.5 in
  Alcotest.(check int) "one contour" 1 (List.length contours);
  let perimeter = Litho.Contour.polyline_length (List.hd contours) in
  checkb "perimeter near 40" true (Float.abs (perimeter -. 40.0) < 6.0)

let test_contour_two_blobs () =
  let r = Litho.Raster.create ~origin:G.Point.origin ~step:1.0 ~nx:60 ~ny:20 in
  for iy = 5 to 14 do
    for ix = 5 to 14 do
      Litho.Raster.set r ix iy 1.0
    done;
    for ix = 35 to 44 do
      Litho.Raster.set r ix iy 1.0
    done
  done;
  Alcotest.(check int) "two contours" 2
    (List.length (Litho.Contour.trace r ~threshold:0.5))

let test_printed_area () =
  let r = Litho.Raster.create ~origin:G.Point.origin ~step:2.0 ~nx:50 ~ny:50 in
  for iy = 10 to 19 do
    for ix = 10 to 19 do
      Litho.Raster.set r ix iy 1.0
    done
  done;
  let area =
    Litho.Contour.printed_area r ~threshold:0.5
      ~window:(G.Rect.make ~lx:0 ~ly:0 ~hx:100 ~hy:100)
  in
  (* 100 pixels of 4 nm^2. *)
  checkb "area near 400" true (Float.abs (area -. 400.0) < 80.0)

(* ---- PV band ---- *)

let test_pvband_ordering () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-300) ~ly:1500 ~hx:300 ~hy:2500 in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 120.0)
  in
  let pv = Litho.Pvband.compute m conditions ~window iso_line in
  checkb "inner <= outer" true (pv.Litho.Pvband.inner_area <= pv.Litho.Pvband.outer_area);
  checkb "band positive" true (pv.Litho.Pvband.band_area > 0.0);
  checkb "inner positive" true (pv.Litho.Pvband.inner_area > 0.0)

let test_pvband_single_condition_zero_band () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:(-300) ~ly:1500 ~hx:300 ~hy:2500 in
  let pv = Litho.Pvband.compute m [ Litho.Condition.nominal ] ~window iso_line in
  checkf 1e-9 "no band with one condition" 0.0 pv.Litho.Pvband.band_area

(* ---- identity against reference paths ---- *)

let counter name = Obs.Metrics.counter_value (Obs.Metrics.counter name)

let block =
  lazy
    (let rng = Stats.Rng.create 7 in
     Layout.Placer.random_block tech Layout.Placer.default_config rng ~n:6)

(* The aerial image composed from the pieces the fused kernel
   replaced: per kernel, the column-strided reference blur of a copy
   of the mask, blended into the image in kernel order. *)
let reference_image m condition ~window polygons =
  let mask = Litho.Aerial.mask_raster m ~window polygons in
  let reference = Litho.Raster.like mask in
  List.iter
    (fun (k : Litho.Model.kernel) ->
      let sigma =
        Litho.Model.effective_sigma m k ~defocus:condition.Litho.Condition.defocus
      in
      let blurred = Litho.Raster.copy mask in
      ref_gaussian blurred ~sigma_px:(sigma /. m.Litho.Model.step);
      Litho.Raster.blend ~dst:reference ~src:blurred ~w:k.Litho.Model.weight)
    m.Litho.Model.kernels;
  reference

let tile_polygons m window =
  Layout.Chip.shapes_in (Lazy.force block) Layout.Layer.Poly
    (G.Rect.inflate window m.Litho.Model.halo)

(* Aerial images of real mask tiles equal the kernel stack convolved
   with the column-strided reference blur, bit for bit. *)
let test_tile_windows_identical () =
  let m = Lazy.force model in
  List.iter
    (fun i ->
      let x = i mod 2 * 1200 and y = i / 2 * 1200 in
      let window = G.Rect.make ~lx:x ~ly:y ~hx:(x + 1200) ~hy:(y + 1200) in
      let polygons = tile_polygons m window in
      let condition = Litho.Condition.make ~dose:1.0 ~defocus:60.0 in
      checkb "tile image = reference" true
        (same_bits
           (Litho.Aerial.simulate m condition ~window polygons)
           (reference_image m condition ~window polygons)))
    [ 0; 1; 2; 3 ]

(* Random rectangle masks over random windows and defoci simulate to
   the reference composition, bit for bit. *)
let simulate_matches_reference =
  QCheck.Test.make ~name:"simulate matches reference composition" ~count:12
    QCheck.(
      make
        ~print:(fun ((w, h), (defocus, rects), seed) ->
          Printf.sprintf "window=%dx%d defocus=%g rects=%d seed=%d" w h defocus
            rects seed)
        Gen.(
          triple
            (pair (int_range 5 1500) (int_range 5 1500))
            (pair (float_range 0.0 200.0) (int_range 0 6))
            int))
    (fun ((w, h), (defocus, rects), seed) ->
      let m = Lazy.force model in
      let rng = Random.State.make [| seed |] in
      let window = G.Rect.make ~lx:0 ~ly:0 ~hx:w ~hy:h in
      let polygons =
        List.init rects (fun _ ->
            let lx = Random.State.int rng (w + 400) - 200
            and ly = Random.State.int rng (h + 400) - 200 in
            G.Polygon.of_rect
              (G.Rect.make ~lx ~ly
                 ~hx:(lx + 1 + Random.State.int rng 400)
                 ~hy:(ly + 1 + Random.State.int rng 400)))
      in
      let condition = Litho.Condition.make ~dose:1.0 ~defocus in
      same_bits
        (Litho.Aerial.simulate m condition ~window polygons)
        (reference_image m condition ~window polygons))

(* A large, a small and again a large window, back to back on one
   domain and through a two-domain pool: no buffer state leaks from
   one simulation into the next. *)
let test_window_sizes_back_to_back () =
  let m = Lazy.force model in
  let windows =
    [ G.Rect.make ~lx:0 ~ly:0 ~hx:1500 ~hy:1500;
      G.Rect.make ~lx:600 ~ly:600 ~hx:700 ~hy:650;
      G.Rect.make ~lx:900 ~ly:300 ~hx:2400 ~hy:1800 ]
  in
  let condition = Litho.Condition.make ~dose:1.0 ~defocus:40.0 in
  let simulate window =
    Litho.Aerial.simulate m condition ~window (tile_polygons m window)
  in
  let references =
    List.map
      (fun window -> reference_image m condition ~window (tile_polygons m window))
      windows
  in
  let check_all what images =
    List.iter2
      (fun image reference -> checkb what true (same_bits image reference))
      images references
  in
  check_all "one domain" (List.map simulate windows);
  check_all "two-domain pool"
    (Exec.Pool.with_pool ~domains:2 (fun pool ->
         Exec.Pool.map_list pool simulate windows))

(* One simulation allocates four nx*ny rasters: the painted mask, the
   returned image -- fresh on every call because [per_defocus] and the
   callers keep it -- and the fused blur's two ping-pong buffers.  A
   per-kernel mask copy or blurred raster would add at least one more
   and break the 4.5 bound; the constant covers painting the few
   lines and the per-row buffers. *)
let test_simulate_allocation () =
  let m = Lazy.force model in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1200 ~hy:1200 in
  let polygons =
    List.init 5 (fun i ->
        G.Polygon.of_rect
          (G.Rect.make ~lx:(250 * i) ~ly:(-200) ~hx:((250 * i) + 90) ~hy:1400))
  in
  let mask = Litho.Aerial.mask_raster m ~window polygons in
  let pixels = Litho.Raster.nx mask * Litho.Raster.ny mask in
  (* Words that worker domains of earlier tests allocated are added to
     this domain's counters at a later major cycle; settle them first. *)
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  let image = Litho.Aerial.simulate m Litho.Condition.nominal ~window polygons in
  let words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) in
  ignore (Sys.opaque_identity image);
  Printf.printf "simulate: %.0f words for %d pixels (%.2f rasters)\n" words pixels
    (words /. float_of_int pixels);
  checkb "at most 4.5 rasters + constant" true
    (words <= (4.5 *. float_of_int pixels) +. 20_000.0)

(* Five corner conditions share two defoci: Pvband simulates twice and
   its band equals one built from an independent simulation per
   condition. *)
let test_pvband_identical () =
  let m = Lazy.force model in
  let chip = Lazy.force block in
  let window = G.Rect.make ~lx:0 ~ly:0 ~hx:1500 ~hy:1500 in
  let polygons =
    Layout.Chip.shapes_in chip Layout.Layer.Poly
      (G.Rect.inflate window m.Litho.Model.halo)
  in
  let conditions =
    Litho.Condition.corners ~dose_range:(0.95, 1.05) ~defocus_range:(0.0, 120.0)
  in
  let s0 = counter "litho.simulations" in
  let pv = Litho.Pvband.compute m conditions ~window polygons in
  Alcotest.(check int) "simulations = distinct defoci" 2
    (counter "litho.simulations" - s0);
  let images =
    List.map
      (fun c ->
        ( Litho.Aerial.simulate m c ~window polygons,
          Litho.Model.printed_threshold m c ))
      conditions
  in
  let first, _ = List.hd images in
  let inner = ref 0.0 and outer = ref 0.0 in
  let px = Litho.Raster.step first *. Litho.Raster.step first in
  for iy = 0 to Litho.Raster.ny first - 1 do
    for ix = 0 to Litho.Raster.nx first - 1 do
      let x = Litho.Raster.x_of_ix first ix and y = Litho.Raster.y_of_iy first iy in
      if x >= 0.0 && x <= 1500.0 && y >= 0.0 && y <= 1500.0 then begin
        let printed (r, th) = Litho.Raster.get r ix iy >= th in
        if List.for_all printed images then inner := !inner +. px;
        if List.exists printed images then outer := !outer +. px
      end
    done
  done;
  checkb "inner area identical" true (Float.equal pv.Litho.Pvband.inner_area !inner);
  checkb "outer area identical" true (Float.equal pv.Litho.Pvband.outer_area !outer)

let () =
  Alcotest.run "litho"
    [
      ( "condition",
        [
          Alcotest.test_case "grid" `Quick test_condition_grid;
          Alcotest.test_case "corners" `Quick test_condition_corners;
          Alcotest.test_case "invalid" `Quick test_condition_invalid;
        ] );
      ( "raster",
        [
          Alcotest.test_case "paint coverage" `Quick test_raster_paint_coverage;
          Alcotest.test_case "subpixel" `Quick test_raster_paint_subpixel;
          Alcotest.test_case "mass" `Quick test_raster_total_mass;
          Alcotest.test_case "bilinear" `Quick test_raster_sample_bilinear;
          Alcotest.test_case "blend" `Quick test_raster_blend;
        ] );
      ( "blur",
        [
          Alcotest.test_case "box sizes" `Quick test_box_sizes_variance;
          Alcotest.test_case "mass" `Quick test_blur_conserves_mass;
          Alcotest.test_case "spreads" `Quick test_blur_spreads;
          Alcotest.test_case "tiny sigma" `Quick test_blur_identity_for_tiny_sigma;
          QCheck_alcotest.to_alcotest blur_matches_reference;
        ] );
      ( "aerial",
        [
          Alcotest.test_case "calibration" `Slow test_calibration_prints_on_target;
          Alcotest.test_case "iso-dense" `Slow test_iso_dense_bias;
          Alcotest.test_case "dose" `Slow test_dose_monotonic;
          Alcotest.test_case "defocus" `Slow test_defocus_shrinks;
          Alcotest.test_case "line end" `Slow test_line_end_pullback;
          Alcotest.test_case "mask clamp" `Quick test_mask_raster_clamped;
        ] );
      ( "metrology",
        [
          Alcotest.test_case "epe sign" `Slow test_epe_sign;
          Alcotest.test_case "not printed" `Quick test_cd_not_printed;
        ] );
      ( "contour",
        [
          Alcotest.test_case "square" `Quick test_contour_square;
          Alcotest.test_case "two blobs" `Quick test_contour_two_blobs;
          Alcotest.test_case "area" `Quick test_printed_area;
        ] );
      ( "pvband",
        [
          Alcotest.test_case "ordering" `Slow test_pvband_ordering;
          Alcotest.test_case "single condition" `Slow test_pvband_single_condition_zero_band;
        ] );
      ( "identity",
        [
          Alcotest.test_case "tile windows" `Slow test_tile_windows_identical;
          QCheck_alcotest.to_alcotest simulate_matches_reference;
          Alcotest.test_case "window sizes back to back" `Slow
            test_window_sizes_back_to_back;
          Alcotest.test_case "simulate allocation" `Quick test_simulate_allocation;
          Alcotest.test_case "pvband" `Slow test_pvband_identical;
        ] );
    ]
