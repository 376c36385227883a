(** Plain-text table rendering for experiment reports.

    Every experiment in [Experiments] ends by printing one of these
    tables; the layout mirrors the rows the paper reports so that
    EXPERIMENTS.md can be regenerated by copy-paste. *)

type align = Left | Right | Center

type t

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table. [aligns] defaults to [Left] for every
    column. *)

val add_row : t -> string list -> unit
(** Rows may be ragged; missing cells render empty.
    @raise Invalid_argument if a row has more cells than there are
    headers. *)

val add_sep : t -> unit
(** Insert a horizontal separator before the next row. *)

val render : t -> string
(** ASCII-art rendering with aligned columns. *)

val render_markdown : t -> string
(** GitHub-flavoured markdown rendering. *)

val print : t -> unit
(** [render] followed by [print_string] and a flush. *)
