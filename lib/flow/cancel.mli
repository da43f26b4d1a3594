(** Cooperative cancellation tokens for the guarded flow.

    A token enters a run only through {!Guard.run}'s [?cancel] (which
    {!Experiment}'s guarded entry points pass straight on); the guard
    polls it at every stage boundary, so a cancelled or expired job stops
    there instead of running the flow to completion. Cancellation is
    cooperative — a stage body already underway finishes — which keeps the
    §6.1/§6.2 determinism contracts intact: a token never changes {e what} a surviving stage
    computes, only whether the next one starts.

    Tokens carry an optional deadline; once it passes, the token behaves
    as if [cancel] had been called with reason ["deadline"]. Both the
    manual reason and the deadline check are visible through {!state},
    which {!Guard} turns into a typed error under the ["cancelled"]
    class. *)

type t

val create : ?deadline_ms:float -> unit -> t
(** A fresh, uncancelled token. [deadline_ms] is a time budget from now;
    once it elapses the token reads as cancelled with reason
    ["deadline"]. *)

val cancel : t -> reason:string -> unit
(** Idempotent; the first reason wins. Safe from any thread or signal
    handler. *)

val state : t -> string option
(** [Some reason] once cancelled (or past the deadline), [None] while the
    token is live. *)

