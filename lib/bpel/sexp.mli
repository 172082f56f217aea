(** S-expression persistence for processes and activities.
    [process_to_string]/[process_of_string] round-trip exactly, for
    every atom: one delimiter set (whitespace, both parentheses and the
    double quote) decides both where the reader ends a bare atom and
    which atoms the printer quotes. Printing builds no tree: it walks
    the process once and writes into one buffer. *)

type sexp = Atom of string | List of sexp list

exception Parse_error of string

val parse_sexp : string -> sexp
(** Lists nest at most 10,000 deep; deeper input raises
    [Parse_error "nesting deeper than 10000"] once it passes the bound,
    without reading further. *)

val of_sexp : sexp -> Activity.t
val process_of_sexp : sexp -> Process.t

val process_to_string : Process.t -> string
val process_of_string : string -> (Process.t, string) result
val processes_digest : (string * string) list -> string
(** Hex MD5 over [name ^ "\000" ^ sexp ^ "\000"] for each
    [(name, sexp)] pair, in list order: the digest of a choreography's
    private processes, keyed by party, that journals seal and the serve
    wire reports. *)

val parties_digest : (string * Process.t) list -> string
(** [processes_digest] of each process's [process_to_string], with
    every process written straight into the one buffer that is hashed. *)

val activity_of_string : string -> (Activity.t, string) result
