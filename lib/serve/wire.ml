(* Wire protocol v1 — see wire.mli. *)

module Json = Chorev_wal.Json
module Budget = Chorev_guard.Budget
module Evolution = Chorev_choreography.Evolution

let version = 1

(* ------------------------------------------------------------------ *)
(* Request classes                                                     *)
(* ------------------------------------------------------------------ *)

type request_class = Interactive | Standard | Bulk

let class_to_string = function
  | Interactive -> "interactive"
  | Standard -> "standard"
  | Bulk -> "bulk"

let class_of_string = function
  | "interactive" -> Ok Interactive
  | "standard" -> Ok Standard
  | "bulk" -> Ok Bulk
  | s -> Error (Printf.sprintf "unknown request class %S" s)

(* Fuel bounds are the deterministic part (identical at every pool
   size); deadlines are loose wall-clock backstops. Bulk is unlimited
   so its verdicts coincide with [Evolution.run]'s default config. *)
let class_budgets = function
  | Interactive ->
      ( { Budget.fuel = Some 1_000_000; timeout_s = Some 5. },
        { Budget.fuel = Some 8_000_000; timeout_s = Some 10. } )
  | Standard ->
      ( { Budget.fuel = Some 10_000_000; timeout_s = Some 60. },
        { Budget.fuel = Some 80_000_000; timeout_s = Some 120. } )
  | Bulk -> (Budget.spec_unlimited, Budget.spec_unlimited)

let class_has_deadline c =
  let op, round = class_budgets c in
  op.Budget.timeout_s <> None || round.Budget.timeout_s <> None

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

type op =
  | Register of { tenant : string; processes : string list }
  | Evolve of {
      tenant : string;
      owner : string;
      changed : string;
      klass : request_class;
    }
  | Query of { tenant : string }
  | Migrate_status of { tenant : string }
  | Publish of { tenant : string; party : string; instances : int; seed : int }
  | Stats

type request = { id : int; op : op }

let tenant_of = function
  | Register { tenant; _ }
  | Evolve { tenant; _ }
  | Query { tenant }
  | Migrate_status { tenant }
  | Publish { tenant; _ } ->
      Some tenant
  | Stats -> None

let request_to_string { id; op } =
  let base = [ ("v", Json.Int version); ("id", Json.Int id) ] in
  let fields =
    match op with
    | Register { tenant; processes } ->
        [
          ("op", Json.Str "register");
          ("tenant", Json.Str tenant);
          ("processes", Json.Arr (List.map (fun s -> Json.Str s) processes));
        ]
    | Evolve { tenant; owner; changed; klass } ->
        [
          ("op", Json.Str "evolve");
          ("tenant", Json.Str tenant);
          ("owner", Json.Str owner);
          ("changed", Json.Str changed);
          ("class", Json.Str (class_to_string klass));
        ]
    | Query { tenant } ->
        [ ("op", Json.Str "query"); ("tenant", Json.Str tenant) ]
    | Migrate_status { tenant } ->
        [ ("op", Json.Str "migrate-status"); ("tenant", Json.Str tenant) ]
    | Publish { tenant; party; instances; seed } ->
        [
          ("op", Json.Str "publish");
          ("tenant", Json.Str tenant);
          ("party", Json.Str party);
          ("instances", Json.Int instances);
          ("seed", Json.Int seed);
        ]
    | Stats -> [ ("op", Json.Str "stats") ]
  in
  Json.to_string (Json.Obj (base @ fields))

let str_field name j =
  match Json.member name j with
  | Some (Json.Str s) -> Ok s
  | _ -> Error (Printf.sprintf "missing or non-string field %S" name)

let int_field name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | _ -> Error (Printf.sprintf "missing or non-integer field %S" name)

(* Pipe mode holds at most [max_line] bytes of a request line and
   answers a longer one with [line_too_long], as the decoder does. *)
let max_line = 16 * 1024 * 1024
let line_too_long = (0, Printf.sprintf "line longer than %d bytes" max_line)
let blank line = String.length line <= max_line && String.trim line = ""

let request_of_string line =
  if String.length line > max_line then Error line_too_long
  else
  match Json.of_string line with
  | Error e -> Error (0, "malformed JSON: " ^ e)
  | Ok j -> (
      let id =
        match Json.member "id" j with Some (Json.Int i) -> i | _ -> 0
      in
      let fail msg = Error (id, msg) in
      match Json.member "v" j with
      | Some (Json.Int v) when v = version -> (
          if id = 0 then fail "missing or zero id"
          else
            let ( let* ) r f = match r with Ok x -> f x | Error e -> fail e in
            match Json.member "op" j with
            | Some (Json.Str "register") -> (
                let* tenant = str_field "tenant" j in
                match Json.member "processes" j with
                | Some (Json.Arr ps) -> (
                    let strs =
                      List.filter_map
                        (function Json.Str s -> Some s | _ -> None)
                        ps
                    in
                    match List.length strs = List.length ps with
                    | true -> Ok { id; op = Register { tenant; processes = strs } }
                    | false -> fail "processes: non-string element")
                | _ -> fail "missing field \"processes\"")
            | Some (Json.Str "evolve") ->
                let* tenant = str_field "tenant" j in
                let* owner = str_field "owner" j in
                let* changed = str_field "changed" j in
                let* klass =
                  match Json.member "class" j with
                  | None -> Ok Bulk
                  | Some (Json.Str s) -> class_of_string s
                  | Some _ -> Error "non-string field \"class\""
                in
                Ok { id; op = Evolve { tenant; owner; changed; klass } }
            | Some (Json.Str "query") ->
                let* tenant = str_field "tenant" j in
                Ok { id; op = Query { tenant } }
            | Some (Json.Str "migrate-status") ->
                let* tenant = str_field "tenant" j in
                Ok { id; op = Migrate_status { tenant } }
            | Some (Json.Str "publish") ->
                let* tenant = str_field "tenant" j in
                let* party = str_field "party" j in
                let* instances = int_field "instances" j in
                let* seed = int_field "seed" j in
                Ok { id; op = Publish { tenant; party; instances; seed } }
            | Some (Json.Str "stats") -> Ok { id; op = Stats }
            | Some (Json.Str op) -> fail (Printf.sprintf "unknown op %S" op)
            | _ -> fail "missing field \"op\"")
      | Some (Json.Int v) ->
          fail (Printf.sprintf "unsupported protocol version %d" v)
      | _ -> fail "missing field \"v\"")

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type party_status = {
  party : string;
  service : string;
  version : int;
  running : int;
  schemas : int;
}

type body =
  | Registered of {
      tenant : string;
      parties : string list;
      versions : int list;
      digest : string;
    }
  | Evolved of { consistent : bool; rounds : int; digest : string; degraded : bool }
  | Queried of {
      parties : string list;
      consistent : bool;
      digest : string;
      evolutions : int;
    }
  | Migration of party_status list
  | Published of {
      party : string;
      to_version : int;
      migrated : int;
      finishing : int;
      stuck : int;
      total : int;
    }
  | Stats_snapshot of (string * Json.t) list

type error =
  [ `Bad_request of string
  | `Unknown_tenant of string
  | `Duplicate_tenant of string
  | `Unknown_party of string
  | `Invalid_model of string
  | `Overloaded
  | `Failed of string ]

let error_code : error -> string = function
  | `Bad_request _ -> "bad-request"
  | `Unknown_tenant _ -> "unknown-tenant"
  | `Duplicate_tenant _ -> "duplicate-tenant"
  | `Unknown_party _ -> "unknown-party"
  | `Invalid_model _ -> "invalid-model"
  | `Overloaded -> "overloaded"
  | `Failed _ -> "failed"

let error_detail : error -> string option = function
  | `Bad_request d | `Unknown_tenant d | `Duplicate_tenant d
  | `Unknown_party d | `Invalid_model d | `Failed d ->
      Some d
  | `Overloaded -> None

type response = { id : int; result : (body, error) result }

let strs ss = Json.Arr (List.map (fun s -> Json.Str s) ss)

let body_to_json = function
  | Registered { tenant; parties; versions; digest } ->
      Json.Obj
        [
          ("tenant", Json.Str tenant);
          ("parties", strs parties);
          ("versions", Json.Arr (List.map (fun v -> Json.Int v) versions));
          ("digest", Json.Str digest);
        ]
  | Evolved { consistent; rounds; digest; degraded } ->
      Json.Obj
        [
          ("consistent", Json.Bool consistent);
          ("rounds", Json.Int rounds);
          ("digest", Json.Str digest);
          ("degraded", Json.Bool degraded);
        ]
  | Queried { parties; consistent; digest; evolutions } ->
      Json.Obj
        [
          ("parties", strs parties);
          ("consistent", Json.Bool consistent);
          ("digest", Json.Str digest);
          ("evolutions", Json.Int evolutions);
        ]
  | Migration ps ->
      Json.Obj
        [
          ( "parties",
            Json.Arr
              (List.map
                 (fun { party; service; version; running; schemas } ->
                   Json.Obj
                     [
                       ("party", Json.Str party);
                       ("service", Json.Str service);
                       ("version", Json.Int version);
                       ("running", Json.Int running);
                       ("schemas", Json.Int schemas);
                     ])
                 ps) );
        ]
  | Published { party; to_version; migrated; finishing; stuck; total } ->
      Json.Obj
        [
          ("party", Json.Str party);
          ("to_version", Json.Int to_version);
          ("migrated", Json.Int migrated);
          ("finishing", Json.Int finishing);
          ("stuck", Json.Int stuck);
          ("total", Json.Int total);
        ]
  | Stats_snapshot kvs -> Json.Obj kvs

let response_to_string { id; result } =
  let base = [ ("v", Json.Int version); ("id", Json.Int id) ] in
  let rest =
    match result with
    | Ok body -> [ ("ok", Json.Bool true); ("result", body_to_json body) ]
    | Error e ->
        [ ("ok", Json.Bool false); ("error", Json.Str (error_code e)) ]
        @ (match error_detail e with
          | Some d -> [ ("detail", Json.Str d) ]
          | None -> [])
  in
  Json.to_string (Json.Obj (base @ rest))

(* Decoding of responses is structural, not exhaustive: it recovers
   enough for clients and tests (round-trip of every body the server
   emits); unknown result shapes come back as [Stats_snapshot] of the
   raw fields. *)
let body_of_json j =
  let field = Json.member in
  match j with
  | Json.Obj kvs -> (
      let strings name =
        match field name j with
        | Some (Json.Arr xs) ->
            Some
              (List.filter_map (function Json.Str s -> Some s | _ -> None) xs)
        | _ -> None
      in
      let int name =
        match field name j with Some (Json.Int i) -> Some i | _ -> None
      in
      match
        (field "tenant" j, field "consistent" j, field "rounds" j,
         field "evolutions" j, field "parties" j)
      with
      | _ when int "to_version" <> None -> (
          match
            (field "party" j, int "to_version", int "migrated",
             int "finishing", int "stuck", int "total")
          with
          | Some (Json.Str party), Some to_version, Some migrated,
            Some finishing, Some stuck, Some total ->
              Published { party; to_version; migrated; finishing; stuck; total }
          | _ -> Stats_snapshot kvs)
      | Some (Json.Str tenant), _, _, _, _ ->
          let versions =
            match field "versions" j with
            | Some (Json.Arr xs) ->
                List.filter_map (function Json.Int i -> Some i | _ -> None) xs
            | _ -> []
          in
          let digest =
            match field "digest" j with Some (Json.Str d) -> d | _ -> ""
          in
          Registered
            {
              tenant;
              parties = Option.value ~default:[] (strings "parties");
              versions;
              digest;
            }
      | _, Some (Json.Bool consistent), Some (Json.Int rounds), _, _ ->
          let digest =
            match field "digest" j with Some (Json.Str d) -> d | _ -> ""
          in
          let degraded =
            match field "degraded" j with Some (Json.Bool b) -> b | _ -> false
          in
          Evolved { consistent; rounds; digest; degraded }
      | _, Some (Json.Bool consistent), _, Some (Json.Int evolutions), _ ->
          let digest =
            match field "digest" j with Some (Json.Str d) -> d | _ -> ""
          in
          Queried
            {
              parties = Option.value ~default:[] (strings "parties");
              consistent;
              digest;
              evolutions;
            }
      | _, _, _, _, Some (Json.Arr ps)
        when List.for_all (function Json.Obj _ -> true | _ -> false) ps ->
          Migration
            (List.filter_map
               (fun p ->
                 let pint name =
                   match Json.member name p with
                   | Some (Json.Int i) -> Some i
                   | _ -> None
                 in
                 match
                   (Json.member "party" p, Json.member "service" p,
                    pint "version")
                 with
                 | Some (Json.Str party), Some (Json.Str service), Some version
                   ->
                     Some
                       {
                         party;
                         service;
                         version;
                         running = Option.value ~default:0 (pint "running");
                         schemas = Option.value ~default:0 (pint "schemas");
                       }
                 | _ -> None)
               ps)
      | _ -> Stats_snapshot kvs)
  | _ -> Stats_snapshot []

let response_of_string line =
  match Json.of_string line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok j -> (
      match (Json.member "v" j, Json.member "id" j, Json.member "ok" j) with
      | Some (Json.Int v), Some (Json.Int id), Some (Json.Bool ok) ->
          if v <> version then
            Error (Printf.sprintf "unsupported protocol version %d" v)
          else if ok then
            match Json.member "result" j with
            | Some body -> Ok { id; result = Ok (body_of_json body) }
            | None -> Error "ok response without result"
          else
            let detail =
              match Json.member "detail" j with
              | Some (Json.Str d) -> d
              | _ -> ""
            in
            let err : error =
              match Json.member "error" j with
              | Some (Json.Str "bad-request") -> `Bad_request detail
              | Some (Json.Str "unknown-tenant") -> `Unknown_tenant detail
              | Some (Json.Str "duplicate-tenant") -> `Duplicate_tenant detail
              | Some (Json.Str "unknown-party") -> `Unknown_party detail
              | Some (Json.Str "invalid-model") -> `Invalid_model detail
              | Some (Json.Str "overloaded") -> `Overloaded
              | _ -> `Failed detail
            in
            Ok { id; result = Error err }
      | _ -> Error "missing v/id/ok field")

(* ------------------------------------------------------------------ *)
(* Body builders shared with the oracle                                *)
(* ------------------------------------------------------------------ *)

let report_degraded (r : Evolution.report) =
  List.exists
    (fun (round : Evolution.round) ->
      List.exists
        (fun (p : Evolution.partner_report) ->
          p.degraded <> []
          || match p.outcome with
             | Some o -> o.Chorev_propagate.Engine.degraded <> []
             | None -> false)
        round.partners)
    r.rounds

let evolved_of_report ~digest (r : Evolution.report) =
  Evolved
    {
      consistent = r.consistent;
      rounds = List.length r.rounds;
      digest;
      degraded = report_degraded r;
    }
