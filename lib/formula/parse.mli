(** Parser for the textual syntax of {!Pp}: [AND] binds tighter than
    [OR]; [NOT] tighter than both; variables are any non-keyword word
    (labels like ["B#A#orderOp"] are single variables). Parentheses
    and [NOT]s nest at most 512 deep: deeper input is
    [Error "nesting deeper than 512"], returned once the parse passes
    the bound, without reading further. *)

val of_string : string -> (Syntax.t, string) result
val of_string_exn : string -> Syntax.t
