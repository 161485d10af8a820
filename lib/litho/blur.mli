(** Fast Gaussian blur by iterated box filters.

    Three box passes per axis approximate a Gaussian to within ~3% of
    peak while costing O(pixels) independent of the blur radius — the
    property that makes full-row lithographic simulation tractable.
    Box widths per pass follow the standard variance-matching
    selection (Kuckir / W3C filter-effects algorithm).

    The blur is one fused kernel that accumulates into an image.  The
    three horizontal passes run per row while the row is in cache,
    reading the source row and going through two row buffers; the
    vertical passes ping-pong between two raster-sized buffers, walking
    rows with one running sum per column, and the last one adds its
    weighted output straight into the image.  The result is bit for
    bit that of a column-by-column sliding window per pass followed by
    a pointwise blend. *)

(** [box_sizes ~sigma ~passes] gives the odd box widths (in pixels)
    whose iterated application matches the Gaussian variance. *)
val box_sizes : sigma:float -> passes:int -> int array

(** Working buffers for {!add_gaussian} over rasters of one size: two
    nx*ny rasters and two rows.  A scratch is not safe to share between
    domains; allocate one per call site (e.g. per aerial simulation)
    and reuse it across that call's kernels. *)
type scratch

(** [scratch r] is scratch for rasters with [r]'s nx and ny. *)
val scratch : Raster.t -> scratch

(** [add_gaussian s ~dst ~w ~sigma_px src] adds [w * G(src)] into
    [dst], where [G] blurs with a Gaussian of [sigma_px] pixels (3 box
    passes per axis, zero padding outside); [src] is not modified.
    For [sigma_px <= 0.25] the blur is the identity.  Each pixel
    becomes [dst + w * g] with [g] the blurred value.  Raises
    [Invalid_argument] unless [dst] and [src] have [s]'s size. *)
val add_gaussian :
  scratch -> dst:Raster.t -> w:float -> sigma_px:float -> Raster.t -> unit
