let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* the directory covers addresses [0, 2^30); other pages live in [far] *)
let max_dir_pages = 1 lsl 20

type page = { ids : int array; (* -1 = never written *) coords : int array array }

(* shared by every unwritten page: reads through it find -1 *)
let empty_page = { ids = Array.make page_size (-1); coords = [||] }
let new_page () = { ids = Array.make page_size (-1); coords = Array.make page_size [||] }

type frame = { mutable r_ids : int array; mutable r_coords : int array array }

type t = {
  mutable dir : page array;
  far : (int, page) Hashtbl.t;
  mutable words : int;
  mutable frames : frame array;
  mutable top : int;  (* index of the current frame *)
}

let new_frame () = { r_ids = [||]; r_coords = [||] }

let create () =
  { dir = Array.make 16 empty_page;
    far = Hashtbl.create 8;
    words = 0;
    frames = [| new_frame () |];
    top = 0 }

let page t addr =
  let p = addr asr page_bits in
  if p >= 0 && p < Array.length t.dir then Array.unsafe_get t.dir p
  else if p >= 0 && p < max_dir_pages then empty_page
  else Option.value ~default:empty_page (Hashtbl.find_opt t.far p)

let writable_page t addr =
  let pg = page t addr in
  if pg != empty_page then pg
  else begin
    let pg = new_page () in
    let p = addr asr page_bits in
    if p >= 0 && p < max_dir_pages then begin
      if p >= Array.length t.dir then begin
        let dir = Array.make (max (p + 1) (2 * Array.length t.dir)) empty_page in
        Array.blit t.dir 0 dir 0 (Array.length t.dir);
        t.dir <- dir
      end;
      t.dir.(p) <- pg
    end
    else Hashtbl.replace t.far p pg;
    pg
  end

let mem_writer t ~addr = Array.unsafe_get (page t addr).ids (addr land page_mask)
let mem_writer_coords t ~addr = (page t addr).coords.(addr land page_mask)

let set_mem t ~addr ~id coords =
  let pg = writable_page t addr in
  let i = addr land page_mask in
  if pg.ids.(i) < 0 then t.words <- t.words + 1;
  pg.ids.(i) <- id;
  pg.coords.(i) <- coords

let n_shadowed_words t = t.words

let push_frame t =
  let top = t.top + 1 in
  if top = Array.length t.frames then
    t.frames <-
      Array.init (2 * top) (fun k -> if k < top then t.frames.(k) else new_frame ());
  let f = t.frames.(top) in
  Array.fill f.r_ids 0 (Array.length f.r_ids) (-1);
  t.top <- top

let pop_frame t =
  if t.top = 0 then invalid_arg "Shadow.pop_frame: unbalanced";
  t.top <- t.top - 1

let reg_writer t ~reg =
  let f = Array.unsafe_get t.frames t.top in
  if reg >= 0 && reg < Array.length f.r_ids then Array.unsafe_get f.r_ids reg
  else -1

let reg_writer_coords t ~reg = t.frames.(t.top).r_coords.(reg)

let set_reg t ~reg ~id coords =
  let f = t.frames.(t.top) in
  let n = Array.length f.r_ids in
  if reg >= n then begin
    let m = max (reg + 1) (2 * n) in
    let ids = Array.make m (-1) and cs = Array.make m [||] in
    Array.blit f.r_ids 0 ids 0 n;
    Array.blit f.r_coords 0 cs 0 n;
    f.r_ids <- ids;
    f.r_coords <- cs
  end;
  f.r_ids.(reg) <- id;
  f.r_coords.(reg) <- coords

type origin = {
  o_sid : Vm.Isa.Sid.t;
  o_ctx : int;
  o_coords : int array;
}

let pack o = (o.o_ctx lsl Vm.Isa.Sid.width) lor o.o_sid

let unpack id coords =
  if id < 0 then None
  else
    Some
      { o_sid = id land ((1 lsl Vm.Isa.Sid.width) - 1);
        o_ctx = id lsr Vm.Isa.Sid.width;
        o_coords = coords }

let write_mem t ~addr o = set_mem t ~addr ~id:(pack o) o.o_coords

let last_mem_writer t ~addr =
  let id = mem_writer t ~addr in
  unpack id (if id < 0 then [||] else mem_writer_coords t ~addr)

let write_reg t ~reg o = set_reg t ~reg ~id:(pack o) o.o_coords

let last_reg_writer t ~reg =
  let id = reg_writer t ~reg in
  unpack id (if id < 0 then [||] else reg_writer_coords t ~reg)
