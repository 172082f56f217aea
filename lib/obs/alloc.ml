(** Allocation accounting over [Gc.quick_stat] deltas (see alloc.mli). *)

type snap = {
  s_minor : float;
  s_promoted : float;
  s_major : float;
  s_minor_gcs : int;
  s_major_gcs : int;
}

type delta = {
  minor_w : int;
  major_w : int;
  promoted_w : int;
  minor_gcs : int;
  major_gcs : int;
}

let snap () =
  let s = Gc.quick_stat () in
  {
    s_minor = s.Gc.minor_words;
    s_promoted = s.Gc.promoted_words;
    s_major = s.Gc.major_words;
    s_minor_gcs = s.Gc.minor_collections;
    s_major_gcs = s.Gc.major_collections;
  }

let diff before after =
  {
    minor_w = int_of_float (after.s_minor -. before.s_minor);
    (* [major_words] counts promotions too; subtract them so the two
       channels (minor alloc, direct major alloc) are disjoint *)
    major_w =
      int_of_float
        (after.s_major -. before.s_major
        -. (after.s_promoted -. before.s_promoted));
    promoted_w = int_of_float (after.s_promoted -. before.s_promoted);
    minor_gcs = after.s_minor_gcs - before.s_minor_gcs;
    major_gcs = after.s_major_gcs - before.s_major_gcs;
  }

let measure f =
  let before = snap () in
  let r = f () in
  (r, diff before (snap ()))

let c_minor = Metrics.counter "gc.minor_words"
let c_major = Metrics.counter "gc.major_words"
let c_promoted = Metrics.counter "gc.promoted_words"
let c_minor_gcs = Metrics.counter "gc.minor_collections"
let c_major_gcs = Metrics.counter "gc.major_collections"

let record d =
  Metrics.add c_minor d.minor_w;
  Metrics.add c_major d.major_w;
  Metrics.add c_promoted d.promoted_w;
  Metrics.add c_minor_gcs d.minor_gcs;
  Metrics.add c_major_gcs d.major_gcs

let measured f =
  let r, d = measure f in
  record d;
  r
