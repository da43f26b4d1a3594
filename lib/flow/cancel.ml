type t = {
  cancelled : string option Atomic.t;
  deadline_us : float option;  (* absolute, on the Obs.Clock timeline *)
}

let create ?deadline_ms () =
  { cancelled = Atomic.make None;
    deadline_us =
      Option.map (fun ms -> Obs.Clock.now_us () +. (ms *. 1000.0)) deadline_ms }

(* first reason wins; a lost race just means someone else cancelled us a
   moment earlier, which is the same outcome *)
let cancel t ~reason =
  let (_ : bool) = Atomic.compare_and_set t.cancelled None (Some reason) in
  ()

let state t =
  match Atomic.get t.cancelled with
  | Some _ as s -> s
  | None ->
    (match t.deadline_us with
     | Some d when Obs.Clock.now_us () > d ->
       cancel t ~reason:"deadline";
       Atomic.get t.cancelled
     | _ -> None)

