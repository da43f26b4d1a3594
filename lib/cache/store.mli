(** Content-addressed layout cache.

    A byte store keyed by digest strings, with an in-memory LRU tier and an
    optional on-disk tier, shared by every level of a sweep. Keys are
    derived from structural fingerprints of a layout's inputs (see
    {!Flow.Pipeline} and DESIGN.md §6.2), so a lookup can only ever return
    bytes produced by the identical computation — the cache accelerates
    repeated sweeps without touching the §6.1 bit-identity contract.

    {b Domains.} One store may be shared by any number of domains and
    threads: every operation holds an internal mutex. The store is a
    plain find/add map; a caller that must not compute one value twice
    looks it up once before it fans out (as {!Flow.Experiment.sweep}
    does with the generated design).

    {b Disk tier.} Entries are written atomically (temp file + rename) as
    a magic header, an MD5 digest of the payload and the payload itself;
    the digest is verified before a disk entry is returned, so truncated
    or corrupted files read as a miss (counted in [cache.disk_corrupt])
    instead of feeding [Marshal] unchecked bytes, and the caller's
    recompute overwrites them.

    {b Processes.} A disk directory may be shared by several processes
    (e.g. a serving daemon next to one-shot CLI runs). Two of them that
    miss the same key both compute it; each publishes the same bytes
    atomically, so a reader sees one whole entry or none. {!create}
    sweeps debris left by crashed writers — temp files whose recorded
    owner PID is dead — while leaving live writers' files alone.

    Effectiveness is observable in the metrics registry: [cache.mem_hits],
    [cache.disk_hits], [cache.misses], [cache.stores], [cache.evictions],
    [cache.disk_corrupt], [cache.bytes_written], [cache.bytes_read]. *)

type t

val create : ?mem_capacity:int -> ?dir:string -> unit -> t
(** [mem_capacity] bounds the in-memory tier in payload bytes (default
    256 MiB); least-recently-used entries are evicted past it. [dir]
    enables the disk tier (the directory is created if missing); evicted
    entries remain readable from disk and survive across processes. *)

val key : string list -> string
(** Digest a list of key parts into a hex cache key. Parts are
    length-prefixed before hashing, so no two distinct part lists
    collide by concatenation. *)

val find : t -> string -> string option
(** Memory tier first (refreshing recency), then disk (verifying the
    payload digest and promoting the entry into memory). [None] counts
    in [cache.misses]. *)

val add : t -> string -> string -> unit
(** Insert into both tiers. A key already in memory keeps its entry
    there; the disk file is always (re)written. *)

val mem_entries : t -> int
val mem_bytes : t -> int
(** Occupancy of the memory tier, for tests and reports. *)
