let env_var = "POLYPROF_TELEMETRY"

let env_enabled =
  match Sys.getenv_opt env_var with
  | None -> false
  | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "" | "0" | "false" | "no" | "off" -> false
      | _ -> true)

let state = Atomic.make env_enabled
let enabled () = Atomic.get state
let enable () = Atomic.set state true
let disable () = Atomic.set state false
