(** aFSA interning: structurally equal automata collapse to one
    physical representative per domain, identified by their canonical
    {!Chorev_afsa.Fingerprint}.

    Mirrors the hash-consing of [Chorev_formula.Syntax]: a [Weak.Make]
    table per domain (weak tables are not thread-safe, and a shared
    automaton's lazy pack must not be built from two domains — see
    [Chorev_parallel.Pool]), accessed through [Domain.DLS]. The weak
    semantics means interning never leaks: an automaton no longer
    reachable elsewhere is collected, table entry included.

    Interned ids are small per-domain ints assigned per distinct
    fingerprint; they are stable for the lifetime of the domain (ids
    are never recycled even after collection) and are what memo tables
    key on conceptually — in practice the memo layer keys on the digest
    strings themselves, which are domain-independent. *)

module Afsa = Chorev_afsa.Afsa
module Fingerprint = Chorev_afsa.Fingerprint

module Key = struct
  type t = Afsa.t

  let equal a b = Fingerprint.equal a b
  let hash a = Hashtbl.hash (Fingerprint.digest a)
end

module W = Weak.Make (Key)

type tables = {
  weak : W.t;
  ids : (string, int) Hashtbl.t; (* digest -> interned id *)
  mutable next_id : int;
}

let dls =
  Domain.DLS.new_key (fun () ->
      { weak = W.create 512; ids = Hashtbl.create 512; next_id = 0 })

(** The canonical physical representative of [a] in this domain:
    the first automaton interned with [a]'s fingerprint still alive,
    else [a] itself (which becomes the representative). *)
let canonical a =
  let t = Domain.DLS.get dls in
  W.merge t.weak a

(** Small per-domain id of [a]'s fingerprint (assigned on first use,
    never recycled). Two automata share an id iff they are structurally
    equal. *)
let id a =
  let t = Domain.DLS.get dls in
  let d = Fingerprint.digest a in
  match Hashtbl.find_opt t.ids d with
  | Some i -> i
  | None ->
      let i = t.next_id in
      t.next_id <- i + 1;
      Hashtbl.add t.ids d i;
      i

(** Is some automaton with this structure currently interned here? *)
let mem a = W.mem (Domain.DLS.get dls).weak a

(** Live interned automata in this domain (an upper bound: weak entries
    may be collected between the count and its use). *)
let count () = W.count (Domain.DLS.get dls).weak

(* ------------------------------------------------------------------ *)
(* Identity for the process side of the dirty-region tracker.          *)
(* ------------------------------------------------------------------ *)

(** Canonical digest of a private process: MD5 of its s-expression
    rendering, which round-trips exactly (see [Chorev_bpel.Sexp]).
    Structure-sensitive the same way aFSA fingerprints are: equal
    digests ⟺ equal processes as written. *)
(* The serialization is linear in the process size and runs once per
   partner per round on the coordinator's hot path, so digests are
   memoized per physical process (processes are immutable and shared
   across rounds by the model). Weak keys: the memo never keeps a
   process alive. *)
module Proc_tbl = Ephemeron.K1.Make (struct
  type t = Chorev_bpel.Process.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let proc_digests = Domain.DLS.new_key (fun () -> Proc_tbl.create 64)

let process_digest (p : Chorev_bpel.Process.t) =
  let tbl = Domain.DLS.get proc_digests in
  match Proc_tbl.find_opt tbl p with
  | Some d -> d
  | None ->
      let d = Digest.string (Chorev_bpel.Sexp.process_to_string p) in
      Proc_tbl.add tbl p d;
      d
