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

    When {!Tile_cache.enabled}, every simulation first consults the
    content-addressed {!Tile_cache.global}: the key is the clipped
    mask geometry relative to the raster origin plus the raster
    geometry and the defocus-adjusted kernel stack, so repeated cell
    patterns hit at any placement and a dose sweep at fixed defocus
    hits after its first condition (dose scales the threshold, not the
    intensity).  Hits return a private copy and
    are bit-identical to a fresh simulation by construction, so
    enabling the cache never changes results — only wall time. *)

val simulate :
  Model.t ->
  Condition.t ->
  window:Geometry.Rect.t ->
  Geometry.Polygon.t list ->
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
