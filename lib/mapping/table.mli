(** The mapping table relating public-process states to BPEL blocks
    (Sec. 3.3, Table 1). A state is associated with the block that
    allocated it and every block whose compilation begins at it, in
    depth-first order; the first entry is the edit anchor. *)

type entry = { block : string; path : Chorev_bpel.Activity.path }

val equal_entry : entry -> entry -> bool
val compare_entry : entry -> entry -> int
val pp_entry : Format.formatter -> entry -> unit
val show_entry : entry -> string

type t

val empty : t
val add : t -> state:int -> entry -> t
val entries : t -> int -> entry list

val anchor : t -> int -> entry option
(** The first associated block — "the required modifications can be
    limited to the first block mentioned". *)

val states : t -> int list
val merge : t -> into:int -> from:int -> t
val renumber : t -> f:(int -> int option) -> t
(** Renumber states through [f], dropping those mapped to [None];
    entries of states mapped to the same new id are concatenated in
    old-id order. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
