(** aFSA interning: structurally equal automata collapse to one
    physical representative per domain, identified by their canonical
    {!Chorev_afsa.Fingerprint}.

    Mirrors the hash-consing of [Chorev_formula.Syntax]: a [Weak.Make]
    table per domain (weak tables are not thread-safe, and a shared
    automaton's lazy CSRs must not be built from two domains — see
    [Chorev_parallel.Pool]), accessed through [Domain.DLS]. The weak
    semantics means interning never leaks: an automaton no longer
    reachable elsewhere is collected, table entry included. The memo
    layer keys on fingerprint digests, which are domain-independent;
    interning only shares the result automata. *)

module Afsa = Chorev_afsa.Afsa
module Fingerprint = Chorev_afsa.Fingerprint

module Key = struct
  type t = Afsa.t

  let equal a b = Fingerprint.equal a b
  let hash a = Hashtbl.hash (Fingerprint.digest a)
end

module W = Weak.Make (Key)

let dls = Domain.DLS.new_key (fun () -> W.create 512)

(** The canonical physical representative of [a] in this domain:
    the first automaton interned with [a]'s fingerprint still alive,
    else [a] itself (which becomes the representative). *)
let canonical a = W.merge (Domain.DLS.get dls) a

(* ------------------------------------------------------------------ *)
(* Identity for the process side of the dirty-region tracker.          *)
(* ------------------------------------------------------------------ *)

(* Processes are immutable and shared across rounds by the model, so
   what is derived from one is memoized on the physical process. Weak
   keys: a table never keeps a process alive. The hash reads the body
   alone: [Hashtbl.hash] stops after ten meaningful values, and a whole
   process spends them on its name, party, links and registry, which a
   partner's retry candidates share. *)
module Proc_tbl = Ephemeron.K1.Make (struct
  type t = Chorev_bpel.Process.t

  let equal = ( == )
  let hash (p : t) = Hashtbl.hash p.body
end)

let proc_digests = Domain.DLS.new_key (fun () -> Proc_tbl.create 64)

(** Canonical digest of a private process: MD5 of its s-expression
    rendering, which round-trips exactly (see [Chorev_bpel.Sexp]).
    Structure-sensitive the same way aFSA fingerprints are: equal
    digests ⟺ equal processes as written. The rendering is linear in
    the process size, so digests are memoized per physical process. *)
let process_digest (p : Chorev_bpel.Process.t) =
  let tbl = Domain.DLS.get proc_digests in
  match Proc_tbl.find_opt tbl p with
  | Some d -> d
  | None ->
      let d = Digest.string (Chorev_bpel.Sexp.process_to_string p) in
      Proc_tbl.add tbl p d;
      d
