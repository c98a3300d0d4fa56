let suite = Rodinia.all @ [ Gems_fdtd.workload ] @ Polybench.all
let all = suite @ Polybench.seeded
let names = List.map (fun (w : Workload.t) -> w.w_name) all

let find name =
  match List.find_opt (fun (w : Workload.t) -> w.w_name = name) all with
  | Some w -> Ok w
  | None ->
      Error
        (Printf.sprintf "unknown benchmark %s (try: %s)" name
           (String.concat ", " names))
