(** Filesystem plumbing shared by the durable runs ({!Run}), the CLI
    and the serving layer: safe path components, atomic file writes
    (tmp + fsync + rename + dir fsync) and journal-root checks. *)

val sanitize : string -> string
(** Escape a name into a safe path component: [A-Za-z0-9_-] pass
    through, everything else becomes [%XX]. Not invertible — callers
    recover names from file contents, not file names. *)

val mkdir_p : string -> unit
(** Create [path] and (recursively) its parents; existing directories
    are fine. *)

val fsync_dir : string -> unit
(** Flush a directory's metadata to disk; errors (e.g. filesystems
    without directory fsync) are ignored. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] — all-or-nothing file replacement:
    write to [path ^ ".tmp"], fsync, rename over [path], fsync the
    parent directory. *)

val read_file : string -> string
(** Whole file, binary. Raises [Sys_error] like [open_in]. *)

val validate_root : string -> (unit, string) result
(** [validate_root path] — [path] is usable as a journal root: it is
    an existing directory, or it does not exist yet but can be created
    (and is created, with parents). [Error] carries a printable
    message; nothing is written on error. *)

val list_subdirs : string -> string list
(** Immediate subdirectories of [dir], sorted by name. Empty list if
    [dir] does not exist. *)
