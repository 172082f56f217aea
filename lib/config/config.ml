module Budget = Chorev_guard.Budget

type repair = {
  enabled : bool;
  max_candidates : int;
  max_edits : int;
  repair_budget : Budget.spec;
}

let repair_off =
  {
    enabled = false;
    max_candidates = 64;
    max_edits = 2;
    repair_budget = Budget.spec_unlimited;
  }

type t = {
  auto_apply : bool;
  max_rounds : int;
  jobs : int;
  op_budget : Budget.spec;
  round_budget : Budget.spec;
  cancel : Budget.Cancel.t option;
  repair : repair;
}

let default =
  {
    auto_apply = true;
    max_rounds = 8;
    jobs = 0;
    op_budget = Budget.spec_unlimited;
    round_budget = Budget.spec_unlimited;
    cancel = None;
    repair = repair_off;
  }

let with_repair ?fuel ?max_candidates ?max_edits t =
  {
    t with
    repair =
      {
        enabled = true;
        max_candidates =
          Option.value max_candidates ~default:t.repair.max_candidates;
        max_edits = Option.value max_edits ~default:t.repair.max_edits;
        repair_budget =
          (match fuel with
          | None -> t.repair.repair_budget
          | Some f -> { Budget.fuel = Some f; timeout_s = None });
      };
  }

let with_budgets ?op_budget ?round_budget ?cancel t =
  {
    t with
    op_budget = Option.value op_budget ~default:t.op_budget;
    round_budget = Option.value round_budget ~default:t.round_budget;
    cancel = (match cancel with Some _ as c -> c | None -> t.cancel);
  }

let budgeted t =
  (not (Budget.spec_is_unlimited t.op_budget))
  || (not (Budget.spec_is_unlimited t.round_budget))
  || t.cancel <> None
  || (t.repair.enabled && not (Budget.spec_is_unlimited t.repair.repair_budget))
