(** The mapping table relating public-process states to BPEL blocks
    (Sec. 3.3, Table 1). A state is associated with the block that
    allocated it and every block whose compilation begins at it, in
    depth-first order; the first entry is the edit anchor. *)

type entry = { block : string; path : Chorev_bpel.Activity.path }

type t

val of_array : entry list array -> t
(** State [q] carries the entries [a.(q)], in order; states with none
    are left out. *)

val entries : t -> int -> entry list

val anchor : t -> int -> entry option
(** The first associated block — "the required modifications can be
    limited to the first block mentioned". *)

val states : t -> int list
val pp : Format.formatter -> t -> unit
val to_string : t -> string
