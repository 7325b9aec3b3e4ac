(** Challenge–response authentication for the simulated WP-A handshake.

    Models the source protocol's "authentication handshake to establish
    [a] secure connection" (§4.1): the server issues a random salt, the
    client proves knowledge of the password by returning
    [digest(salt ^ ":" ^ password)], and the password itself never crosses
    the wire. *)

type credentials = { username : string; password : string }

(* a deterministic PRNG keeps handshakes reproducible in tests *)
let salt_counter = Atomic.make 0

let fresh_salt () =
  let n = 1 + Atomic.fetch_and_add salt_counter 1 in
  Digest.to_hex (Digest.string (Printf.sprintf "hyperq-salt-%d" n))

let proof ~salt ~password = Digest.to_hex (Digest.string (salt ^ ":" ^ password))

let verify ~salt ~password ~given = String.equal (proof ~salt ~password) given

type user_db = (string * string) list  (** username -> password *)

let check (db : user_db) ~username ~salt ~given =
  match List.assoc_opt (String.uppercase_ascii username) db with
  | Some password -> verify ~salt ~password ~given
  | None -> false
