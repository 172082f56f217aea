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

module IMap = Map.Make (Int)

type t = { assoc : entry list IMap.t }

(** The table whose state [q] carries the entries [a.(q)], in order;
    states with none are left out. *)
let of_array a =
  let assoc = ref IMap.empty in
  Array.iteri (fun q es -> if es <> [] then assoc := IMap.add q es !assoc) a;
  { assoc = !assoc }

let entries t state = Option.value ~default:[] (IMap.find_opt state t.assoc)

(** The edit anchor of a state: the first associated block. *)
let anchor t state =
  match entries t state with [] -> None | e :: _ -> Some e

let states t = List.map fst (IMap.bindings t.assoc)

let pp ppf t =
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut (fun ppf (q, es) ->
         Fmt.pf ppf "%d | %a" q
           (Fmt.list ~sep:(Fmt.any ", ") (fun ppf e -> Fmt.string ppf e.block))
           es))
    (IMap.bindings t.assoc)

let to_string t = Fmt.str "%a" pp t
