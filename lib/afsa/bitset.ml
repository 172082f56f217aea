(** Flat bitsets over dense state indexes [0 .. n-1].

    The automaton's finals and annotated states are stored as these,
    and the kernels over its arrays use them for frontiers and
    membership sets instead of [ISet.t]: one byte-per-8-states [Bytes.t]
    buffer, so membership is a load-and-mask, equality is [Bytes.equal]
    (a memcmp), and a full sweep allocates nothing. Capacity is fixed at
    creation — exactly the dense state count of the automaton being
    processed. *)

type t = { bits : Bytes.t; n : int }

let create n = { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let length t = t.n

let mem t i =
  Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.bits j) lor (1 lsl (i land 7))))

let remove t i =
  let j = i lsr 3 in
  Bytes.unsafe_set t.bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get t.bits j) land lnot (1 lsl (i land 7))))

let clear t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let fill t =
  (* set every valid bit, leaving the padding bits of the last byte 0 so
     [equal] stays a plain memcmp *)
  for i = 0 to t.n - 1 do
    add t i
  done

let copy t = { bits = Bytes.copy t.bits; n = t.n }
let equal a b = a.n = b.n && Bytes.equal a.bits b.bits
let blit ~src ~dst = Bytes.blit src.bits 0 dst.bits 0 (Bytes.length src.bits)

let cardinal t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if mem t i then incr c
  done;
  !c

(** Ascending-index iteration. *)
let iter f t =
  for i = 0 to t.n - 1 do
    if mem t i then f i
  done

let fold f t init =
  let acc = ref init in
  for i = 0 to t.n - 1 do
    if mem t i then acc := f i !acc
  done;
  !acc

let of_list n l =
  let t = create n in
  List.iter (fun i -> add t i) l;
  t

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])
