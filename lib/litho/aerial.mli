(** Aerial-image simulation.

    [simulate model condition ~window polygons] rasterises the mask
    polygons over [window] plus the model halo and convolves with the
    defocus-adjusted kernel stack.  The returned raster holds relative
    intensity (1.0 deep inside large features); apply
    {!Model.printed_threshold} to decide printing.

    The convolution is a per-kernel 3-pass box-blur cascade, run over
    the whole requested window in one raster on the calling domain;
    each kernel's blur is blended into the image in kernel order as
    soon as it is computed.  Parallelism lives above this call: chip
    OPC and CD extraction run whole tiles on their pool, each tile
    making its own sequential [simulate] calls.

    Every call paints and convolves, and counts [litho.simulations].
    Dose is not an input of the image (it scales only
    {!Model.printed_threshold}), so callers that sweep process
    conditions — {!Pvband.compute}, CD extraction, {!per_defocus} —
    simulate once per distinct defocus and threshold each condition on
    that image. *)

val simulate :
  Model.t ->
  Condition.t ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
  Raster.t

(** [per_defocus model ~window polygons] is [simulate model c ~window
    polygons] as a function of the condition [c], simulating each
    distinct defocus once, on first use, and returning that same
    raster for every later condition with the same defocus.  The
    rasters are shared: callers must not mutate them. *)
val per_defocus :
  Model.t ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
  Condition.t ->
  Raster.t

(** The rasterised (clamped, anti-aliased) mask without convolution;
    exposed for tests and debugging. *)
val mask_raster :
  Model.t -> window:Geometry.Rect.t -> Geometry.Polygon.t list -> Raster.t

(** [calibrate model tech] sets the resist threshold so that a dense
    line array at drawn gate length prints at exactly the drawn CD
    under the nominal condition — a centred process.  The threshold is
    read off the simulated intensity at the drawn edge position. *)
val calibrate : Model.t -> Layout.Tech.t -> Model.t
