(** Append-only JSONL journal: the one durability discipline behind
    [Charon.Proofcache] and [Server.Store].

    One fact per line, an object tagged [{"v":1,…}].  Each append is
    flushed before it returns, so a crash loses at most the line being
    written.  Replay skips every line that does not parse, is not an
    object or carries another version, so a torn tail, garbage or a
    future format cannot poison a restart.  Domain-safe: appends and
    [close] share one mutex. *)

type t

val create : string -> replay:(Telemetry.Jsonw.t -> bool) -> t
(** Replay [path], then open it for appending (created if absent).
    [replay] sees every intact v1 line in file order and answers
    whether it held a fact; those lines are counted by {!loaded}. *)

val append : t -> (string * Telemetry.Jsonw.t) list -> unit
(** Write [{"v":1, fields…}] as one compact line and flush it.  A no-op
    after {!close}. *)

val close : t -> unit
(** Close the file; idempotent.  Appended lines are already on disk. *)

val path : t -> string

val loaded : t -> int
(** Lines [replay] accepted at {!create}. *)
