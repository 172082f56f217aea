(** The mapping table relating public-process states to the private
    process's BPEL blocks (Sec. 3.3, Table 1 of the paper).

    A state is associated with (a) the block during whose compilation
    it was allocated, and (b) every block whose compilation *begins* at
    it, in depth-first traversal order. "The required modifications can
    be limited to the first block mentioned due to the depth first
    traversal" — {!anchor} returns exactly that first block. *)

type entry = {
  block : string;  (** display name, e.g. ["While:tracking"] *)
  path : Chorev_bpel.Activity.path;  (** positional path of that block *)
}
[@@deriving eq, ord, show]

module IMap = Map.Make (Int)

type t = { assoc : entry list IMap.t }

let empty = { assoc = IMap.empty }

(** Append an entry for [state] (chronological order, deduplicated). *)
let add t ~state entry =
  let cur = Option.value ~default:[] (IMap.find_opt state t.assoc) in
  if List.exists (fun e -> equal_entry e entry) cur then t
  else { assoc = IMap.add state (cur @ [ entry ]) t.assoc }

let entries t state = Option.value ~default:[] (IMap.find_opt state t.assoc)

(** The edit anchor of a state: the first associated block. *)
let anchor t state =
  match entries t state with [] -> None | e :: _ -> Some e

let states t = List.map fst (IMap.bindings t.assoc)

(** Merge the associations of [from] into [into] (used when ε-elimination
    fuses states) — [into]'s entries first. *)
let merge t ~into ~from =
  List.fold_left (fun t e -> add t ~state:into e) t (entries t from)

(** Renumber states through [f], dropping the states it maps to
    [None]; entries of states mapped to the same new id are
    concatenated in old-id order. *)
let renumber t ~f =
  IMap.fold
    (fun q es acc ->
      match f q with
      | None -> acc
      | Some q' -> List.fold_left (fun acc e -> add acc ~state:q' e) acc es)
    t.assoc empty

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (q, es) ->
         Fmt.pf ppf "%d | %a" q
           (Fmt.list ~sep:(Fmt.any ", ") (fun ppf e -> Fmt.string ppf e.block))
           es))
    (IMap.bindings t.assoc)

let to_string t = Fmt.str "%a" pp t
