(** Minimal JSON — hand-rolled (the toolchain has no JSON library);
    [to_string] emits no insignificant whitespace and [of_string]
    accepts exactly the JSON grammar (strings with [\uXXXX] escapes,
    integers, no floats), with arrays and objects nested at most 512
    deep. An escaped surrogate pair decodes to the UTF-8 of its one
    code point; a lone surrogate is an error. Every error names the
    byte offset where parsing stopped. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
val of_string : string -> (t, string) result
val member : string -> t -> t option

val list : (t -> ('a, string) result) -> t -> ('a list, string) result
(** [list f (Arr xs)] decodes every element with [f], in order; the
    first [Error] (or a non-array) wins. *)
