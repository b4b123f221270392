(** Java-flavoured pretty-printer.

    Untransformed programs print with [synchronized (...) { ... }] blocks;
    transformed programs print with explicit [scheduler.lock(...)] calls — the
    same before/after contrast as the paper's Figure 4. *)

val sync_param : Format.formatter -> Ast.sync_param -> unit

val method_def : Format.formatter -> Class_def.method_def -> unit

val class_def : Format.formatter -> Class_def.t -> unit

val block_to_string : Ast.block -> string
