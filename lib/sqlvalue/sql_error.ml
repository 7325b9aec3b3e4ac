(** Error taxonomy shared across all Hyper-Q components.

    Every layer of the pipeline (protocol, parser, binder, transformer,
    serializer, engine) reports failures through [Sql_error.Error], carrying a
    [kind] so that the gateway can map the failure onto the right wire-level
    response code. *)

type kind =
  | Parse_error  (** lexical or syntactic error in the incoming SQL text *)
  | Bind_error  (** name resolution / typing failure during algebrization *)
  | Unsupported  (** construct not supported by Hyper-Q at all *)
  | Capability_gap
      (** construct valid in SQL-A with no rewrite available for the chosen
          backend (candidate for emulation) *)
  | Execution_error  (** runtime failure inside the backend engine *)
  | Transient_error
      (** backend hiccup (lost connection, timeout, overload) that a retry
          may absorb; the resilience layer owns these *)
  | Unavailable
      (** backend or server out of service: retries exhausted, circuit
          breaker open, deadline exceeded, or the front door draining *)
  | Protocol_error  (** malformed wire message *)
  | Conversion_error  (** result conversion (TDF -> WP-A) failure *)
  | Internal_error  (** invariant violation; a bug in Hyper-Q itself *)

type t = { kind : kind; message : string }

exception Error of t

let kind_to_string = function
  | Parse_error -> "parse error"
  | Bind_error -> "bind error"
  | Unsupported -> "unsupported"
  | Capability_gap -> "capability gap"
  | Execution_error -> "execution error"
  | Transient_error -> "transient error"
  | Unavailable -> "unavailable"
  | Protocol_error -> "protocol error"
  | Conversion_error -> "conversion error"
  | Internal_error -> "internal error"

let to_string { kind; message } =
  Printf.sprintf "%s: %s" (kind_to_string kind) message

let raise_error kind fmt =
  Printf.ksprintf (fun message -> raise (Error { kind; message })) fmt

let parse_error fmt = raise_error Parse_error fmt
let bind_error fmt = raise_error Bind_error fmt
let unsupported fmt = raise_error Unsupported fmt
let capability_gap fmt = raise_error Capability_gap fmt
let execution_error fmt = raise_error Execution_error fmt
let transient_error fmt = raise_error Transient_error fmt
let unavailable fmt = raise_error Unavailable fmt
let protocol_error fmt = raise_error Protocol_error fmt
let conversion_error fmt = raise_error Conversion_error fmt
let internal_error fmt = raise_error Internal_error fmt

let pp ppf e = Fmt.string ppf (to_string e)

(** Run [f] and package any [Error] as [Result.Error]. *)
let protect f = match f () with v -> Ok v | exception Error e -> Stdlib.Error e
