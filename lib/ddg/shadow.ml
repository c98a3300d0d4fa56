type origin = {
  o_sid : Vm.Isa.Sid.t;
  o_ctx : int;
  o_coords : int array;
}

type t = {
  mem : (int, origin) Hashtbl.t;
  mutable frames : (int, origin) Hashtbl.t list;
}

let create () = { mem = Hashtbl.create 4096; frames = [ Hashtbl.create 16 ] }
let write_mem t ~addr origin = Hashtbl.replace t.mem addr origin
let last_mem_writer t ~addr = Hashtbl.find_opt t.mem addr
let push_frame t = t.frames <- Hashtbl.create 16 :: t.frames

let pop_frame t =
  match t.frames with
  | _ :: (_ :: _ as rest) -> t.frames <- rest
  | _ -> invalid_arg "Shadow.pop_frame: unbalanced"

let top t = match t.frames with f :: _ -> f | [] -> assert false
let write_reg t ~reg origin = Hashtbl.replace (top t) reg origin
let last_reg_writer t ~reg = Hashtbl.find_opt (top t) reg
let n_shadowed_words t = Hashtbl.length t.mem
