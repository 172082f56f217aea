(** Flat bitsets over dense indexes [0 .. n-1], the membership/frontier
    representation of the aFSA arrays and kernels: load-and-mask membership,
    memcmp equality, zero allocation on sweeps. Capacity is fixed at
    creation. *)

type t

val create : int -> t
(** All-empty set of capacity [n]. *)

val length : t -> int
(** The capacity [n] (not the population). *)

val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val clear : t -> unit

val fill : t -> unit
(** Set every index in [0 .. n-1]. *)

val copy : t -> t
val equal : t -> t -> bool

val blit : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]'s contents (capacities must match). *)

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** Ascending index order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending index order. *)

val of_list : int -> int list -> t
val elements : t -> int list
