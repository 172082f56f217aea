module Budget = Chorev_guard.Budget

type t = {
  auto_apply : bool;
  op_budget : Budget.spec;
  round_budget : Budget.spec;
  repair : Budget.spec option;
}

let default =
  {
    auto_apply = true;
    op_budget = Budget.spec_unlimited;
    round_budget = Budget.spec_unlimited;
    repair = None;
  }

let with_repair ?fuel t =
  let budget =
    match fuel with
    | Some f -> { Budget.fuel = Some f; timeout_s = None }
    | None -> Option.value t.repair ~default:Budget.spec_unlimited
  in
  { t with repair = Some budget }

let with_budgets ?op_budget ?round_budget t =
  {
    t with
    op_budget = Option.value op_budget ~default:t.op_budget;
    round_budget = Option.value round_budget ~default:t.round_budget;
  }

let budgeted t =
  (not (Budget.spec_is_unlimited t.op_budget))
  || (not (Budget.spec_is_unlimited t.round_budget))
  ||
  match t.repair with
  | Some b -> not (Budget.spec_is_unlimited b)
  | None -> false
