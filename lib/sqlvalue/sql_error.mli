(** Error taxonomy shared across all Hyper-Q components.

    Every layer of the pipeline (protocol, parser, binder, transformer,
    serializer, engine) reports failures through {!Error}, carrying a
    {!kind} so the gateway can map the failure onto the right wire-level
    response code. *)

type kind =
  | Parse_error  (** lexical or syntactic error in the incoming SQL text *)
  | Bind_error  (** name resolution / typing failure during algebrization *)
  | Unsupported  (** construct not supported by Hyper-Q at all *)
  | Capability_gap
      (** construct valid in the source dialect with no rewrite available for
          the chosen backend (candidate for emulation) *)
  | Execution_error  (** runtime failure inside the backend engine *)
  | Transient_error
      (** backend hiccup (lost connection, timeout, overload) that a retry
          may absorb; the resilience layer owns these *)
  | Unavailable
      (** backend or server out of service: retries exhausted, circuit
          breaker open, deadline exceeded, or the front door draining *)
  | Protocol_error  (** malformed wire message *)
  | Conversion_error  (** result conversion (TDF → WP-A) failure *)
  | Internal_error  (** invariant violation; a bug in Hyper-Q itself *)

type t = { kind : kind; message : string }

exception Error of t

val kind_to_string : kind -> string
val to_string : t -> string

(** [raise_error kind fmt ...] raises {!Error} with a formatted message. *)
val raise_error : kind -> ('a, unit, string, 'b) format4 -> 'a

val parse_error : ('a, unit, string, 'b) format4 -> 'a
val bind_error : ('a, unit, string, 'b) format4 -> 'a
val unsupported : ('a, unit, string, 'b) format4 -> 'a
val capability_gap : ('a, unit, string, 'b) format4 -> 'a
val execution_error : ('a, unit, string, 'b) format4 -> 'a
val transient_error : ('a, unit, string, 'b) format4 -> 'a
val unavailable : ('a, unit, string, 'b) format4 -> 'a
val protocol_error : ('a, unit, string, 'b) format4 -> 'a
val conversion_error : ('a, unit, string, 'b) format4 -> 'a
val internal_error : ('a, unit, string, 'b) format4 -> 'a

val pp : Format.formatter -> t -> unit

(** Run [f], packaging any {!Error} as [Result.Error]. *)
val protect : (unit -> 'a) -> ('a, t) result
