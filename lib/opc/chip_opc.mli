(** Chip-level OPC driver: tiles the die, corrects each tile's poly
    shapes with surrounding shapes as frozen context, and assembles the
    full-chip corrected mask.  The frozen-context approximation (the
    context is drawn, not corrected) mirrors hierarchical production
    flows and is recorded in DESIGN.md.  It also makes tiles
    independent: with [pool], model-OPC tiles run as parallel pool
    tasks and their corrections are applied in canonical (x-major)
    tile order, so the mask and stats are byte-identical for any
    worker count. *)

type style =
  | None_  (** identity: mask = drawn layout *)
  | Rule of Rule_opc.recipe
  | Model of Model_opc.config

(** [correct litho_model style chip ~tile] corrects the poly layer.
    [tile] is the tile edge in nm (2000–20000 is sensible).  The stats
    are all-zero for [None_] and [Rule]; [pool] only matters for
    [Model]. *)
val correct :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  style ->
  Layout.Chip.t ->
  tile:int ->
  Mask.t * Model_opc.stats

(** [correct_selective litho_model config chip ~tile ~selected] runs
    model-based OPC only on poly shapes that intersect a gate in
    [selected] (rule-based bias elsewhere) — the paper's DFM feedback
    experiment. *)
val correct_selective :
  ?pool:Exec.Pool.t ->
  Litho.Model.t ->
  Model_opc.config ->
  Rule_opc.recipe ->
  Layout.Chip.t ->
  tile:int ->
  selected:Layout.Chip.gate_ref list ->
  Mask.t * Model_opc.stats
