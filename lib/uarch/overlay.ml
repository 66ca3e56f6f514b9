(** Typed, canonically-encodable edits to a {!Profile} execution table.

    An overlay is a sparse patch over the profile's scalar entries:
    latencies, candidate-port masks and uop counts. Every patchable
    entry is a [target] with a stable small-int code, so an overlay has
    a canonical byte encoding (sorted by code, one edit per target) that
    the engine can digest into generation fingerprints, the refinement
    journal can replay byte-for-byte, and tests can pin.

    The module also carries the *dependency map* the block-sensitive
    generation scheme and the discrepancy localizer share: which targets
    each variant opcode class (see {!Flat.variant_opcode}) reads when it
    decomposes. Invariant classes need no map — their flat table rows
    are compared directly. *)

type lat_field =
  | L_lea_complex
  | L_imul
  | L_div32
  | L_div64
  | L_bit_scan
  | L_load
  | L_vec_imul
  | L_fp_add
  | L_fp_mul
  | L_fp_fma
  | L_fp_div_s
  | L_fp_div_d
  | L_cvt
  | L_movmsk
  | L_xfer

type port_field =
  | P_alu
  | P_shift
  | P_lea_simple
  | P_lea_complex
  | P_imul
  | P_div
  | P_bit_scan
  | P_load
  | P_store_addr
  | P_store_data
  | P_vec_alu
  | P_vec_shift
  | P_vec_shuffle
  | P_vec_imul
  | P_fp_add
  | P_fp_mul
  | P_fp_div
  | P_fp_mov
  | P_cvt
  | P_movmsk
  | P_xfer

type uop_field = U_adc | U_cmov | U_pmulld

type target = Lat of lat_field | Ports of port_field | Uops of uop_field

(* Canonical target order; [code] is the index here. Append-only: codes
   are persisted in journals and store generations. *)
let all : target list =
  List.map
    (fun l -> Lat l)
    [
      L_lea_complex; L_imul; L_div32; L_div64; L_bit_scan; L_load;
      L_vec_imul; L_fp_add; L_fp_mul; L_fp_fma; L_fp_div_s; L_fp_div_d;
      L_cvt; L_movmsk; L_xfer;
    ]
  @ List.map
      (fun p -> Ports p)
      [
        P_alu; P_shift; P_lea_simple; P_lea_complex; P_imul; P_div;
        P_bit_scan; P_load; P_store_addr; P_store_data; P_vec_alu;
        P_vec_shift; P_vec_shuffle; P_vec_imul; P_fp_add; P_fp_mul;
        P_fp_div; P_fp_mov; P_cvt; P_movmsk; P_xfer;
      ]
  @ List.map (fun u -> Uops u) [ U_adc; U_cmov; U_pmulld ]

let n_targets = List.length all

let code (t : target) =
  let rec go i = function
    | [] -> invalid_arg "Overlay.code"
    | x :: tl -> if x = t then i else go (i + 1) tl
  in
  go 0 all

let of_code c = List.nth_opt all c

let name = function
  | Lat l ->
    "lat."
    ^ (match l with
      | L_lea_complex -> "lea_complex"
      | L_imul -> "imul"
      | L_div32 -> "div32"
      | L_div64 -> "div64"
      | L_bit_scan -> "bit_scan"
      | L_load -> "load"
      | L_vec_imul -> "vec_imul"
      | L_fp_add -> "fp_add"
      | L_fp_mul -> "fp_mul"
      | L_fp_fma -> "fp_fma"
      | L_fp_div_s -> "fp_div_s"
      | L_fp_div_d -> "fp_div_d"
      | L_cvt -> "cvt"
      | L_movmsk -> "movmsk"
      | L_xfer -> "xfer")
  | Ports p ->
    "ports."
    ^ (match p with
      | P_alu -> "alu"
      | P_shift -> "shift"
      | P_lea_simple -> "lea_simple"
      | P_lea_complex -> "lea_complex"
      | P_imul -> "imul"
      | P_div -> "div"
      | P_bit_scan -> "bit_scan"
      | P_load -> "load"
      | P_store_addr -> "store_addr"
      | P_store_data -> "store_data"
      | P_vec_alu -> "vec_alu"
      | P_vec_shift -> "vec_shift"
      | P_vec_shuffle -> "vec_shuffle"
      | P_vec_imul -> "vec_imul"
      | P_fp_add -> "fp_add"
      | P_fp_mul -> "fp_mul"
      | P_fp_div -> "fp_div"
      | P_fp_mov -> "fp_mov"
      | P_cvt -> "cvt"
      | P_movmsk -> "movmsk"
      | P_xfer -> "xfer")
  | Uops u ->
    "uops."
    ^ (match u with U_adc -> "adc" | U_cmov -> "cmov" | U_pmulld -> "pmulld")

let of_name s = List.find_opt (fun t -> name t = s) all

(* --- entry access ------------------------------------------------------ *)

let get (p : Profile.t) = function
  | Lat L_lea_complex -> p.lea_complex_latency
  | Lat L_imul -> p.imul_latency
  | Lat L_div32 -> p.div32_latency
  | Lat L_div64 -> p.div64_latency
  | Lat L_bit_scan -> p.bit_scan_latency
  | Lat L_load -> p.load_latency
  | Lat L_vec_imul -> p.vec_imul_latency
  | Lat L_fp_add -> p.fp_add_latency
  | Lat L_fp_mul -> p.fp_mul_latency
  | Lat L_fp_fma -> p.fp_fma_latency
  | Lat L_fp_div_s -> p.fp_div_latency_s
  | Lat L_fp_div_d -> p.fp_div_latency_d
  | Lat L_cvt -> p.cvt_latency
  | Lat L_movmsk -> p.movmsk_latency
  | Lat L_xfer -> p.xfer_latency
  | Ports P_alu -> p.alu
  | Ports P_shift -> p.shift
  | Ports P_lea_simple -> p.lea_simple
  | Ports P_lea_complex -> p.lea_complex
  | Ports P_imul -> p.imul
  | Ports P_div -> p.div
  | Ports P_bit_scan -> p.bit_scan
  | Ports P_load -> p.load
  | Ports P_store_addr -> p.store_addr
  | Ports P_store_data -> p.store_data
  | Ports P_vec_alu -> p.vec_alu
  | Ports P_vec_shift -> p.vec_shift
  | Ports P_vec_shuffle -> p.vec_shuffle
  | Ports P_vec_imul -> p.vec_imul
  | Ports P_fp_add -> p.fp_add
  | Ports P_fp_mul -> p.fp_mul
  | Ports P_fp_div -> p.fp_div
  | Ports P_fp_mov -> p.fp_mov
  | Ports P_cvt -> p.cvt
  | Ports P_movmsk -> p.movmsk
  | Ports P_xfer -> p.xfer
  | Uops U_adc -> p.adc_uops
  | Uops U_cmov -> p.cmov_uops
  | Uops U_pmulld -> p.pmulld_uops

let set (p : Profile.t) t v : Profile.t =
  match t with
  | Lat L_lea_complex -> { p with lea_complex_latency = v }
  | Lat L_imul -> { p with imul_latency = v }
  | Lat L_div32 -> { p with div32_latency = v }
  | Lat L_div64 -> { p with div64_latency = v }
  | Lat L_bit_scan -> { p with bit_scan_latency = v }
  | Lat L_load -> { p with load_latency = v }
  | Lat L_vec_imul -> { p with vec_imul_latency = v }
  | Lat L_fp_add -> { p with fp_add_latency = v }
  | Lat L_fp_mul -> { p with fp_mul_latency = v }
  | Lat L_fp_fma -> { p with fp_fma_latency = v }
  | Lat L_fp_div_s -> { p with fp_div_latency_s = v }
  | Lat L_fp_div_d -> { p with fp_div_latency_d = v }
  | Lat L_cvt -> { p with cvt_latency = v }
  | Lat L_movmsk -> { p with movmsk_latency = v }
  | Lat L_xfer -> { p with xfer_latency = v }
  | Ports P_alu -> { p with alu = v }
  | Ports P_shift -> { p with shift = v }
  | Ports P_lea_simple -> { p with lea_simple = v }
  | Ports P_lea_complex -> { p with lea_complex = v }
  | Ports P_imul -> { p with imul = v }
  | Ports P_div -> { p with div = v }
  | Ports P_bit_scan -> { p with bit_scan = v }
  | Ports P_load -> { p with load = v }
  | Ports P_store_addr -> { p with store_addr = v }
  | Ports P_store_data -> { p with store_data = v }
  | Ports P_vec_alu -> { p with vec_alu = v }
  | Ports P_vec_shift -> { p with vec_shift = v }
  | Ports P_vec_shuffle -> { p with vec_shuffle = v }
  | Ports P_vec_imul -> { p with vec_imul = v }
  | Ports P_fp_add -> { p with fp_add = v }
  | Ports P_fp_mul -> { p with fp_mul = v }
  | Ports P_fp_div -> { p with fp_div = v }
  | Ports P_fp_mov -> { p with fp_mov = v }
  | Ports P_cvt -> { p with cvt = v }
  | Ports P_movmsk -> { p with movmsk = v }
  | Ports P_xfer -> { p with xfer = v }
  | Uops U_adc -> { p with adc_uops = v }
  | Uops U_cmov -> { p with cmov_uops = v }
  | Uops U_pmulld -> { p with pmulld_uops = v }

(* --- overlays ---------------------------------------------------------- *)

type edit = { target : target; value : int }
type t = edit list  (** canonical: sorted by target code, one edit each *)

let empty : t = []
let is_empty (o : t) = o = []

(* Sort by code; later edits to the same target win. *)
let canonical (edits : edit list) : t =
  let tbl = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace tbl (code e.target) e) edits;
  Hashtbl.fold (fun c e acc -> (c, e) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let update (o : t) target value = canonical (o @ [ { target; value } ])
let remove (o : t) target = List.filter (fun e -> e.target <> target) o

let find (o : t) target =
  List.find_map (fun e -> if e.target = target then Some e.value else None) o

let apply (p : Profile.t) (o : t) =
  List.fold_left (fun p e -> set p e.target e.value) p o

let encoding_version = "bhive-overlay-v1"

(** Canonical byte encoding: version line then one [code=value] line per
    edit in code order. Digested by the engine into per-candidate
    generation fingerprints and replayed by the refinement journal. *)
let encode (o : t) =
  let b = Buffer.create 64 in
  Buffer.add_string b encoding_version;
  Buffer.add_char b '\n';
  List.iter
    (fun e -> Buffer.add_string b (Printf.sprintf "%d=%d\n" (code e.target) e.value))
    (canonical o);
  Buffer.contents b

let to_string (o : t) =
  if is_empty o then "(empty)"
  else
    String.concat ","
      (List.map
         (fun e ->
           match e.target with
           | Ports _ -> Printf.sprintf "%s=%s" (name e.target) (Port.name e.value)
           | _ -> Printf.sprintf "%s=%d" (name e.target) e.value)
         (canonical o))

(* --- dependency map ---------------------------------------------------- *)

(* Which targets each *variant* opcode class ([Flat.variant_opcode])
   reads when decomposing. Kept deliberately as supersets of the exact
   reads in [Profile.exec_uops]; the block-generation soundness test
   (gen unchanged => simulation unchanged, over generated corpora and
   random single-target patches) catches omissions, while an overly
   wide entry only costs warm-store hits. Load/store splitting is not
   listed here — memory-touching blocks carry the whole load/store
   section in their generation. *)
let variant_reads : X86.Opcode.t -> target list = function
  | X86.Opcode.Mov | Movzx _ | Movsx _ | Movsxd -> [ Ports P_alu ]
  | Lea ->
    [ Ports P_lea_simple; Ports P_lea_complex; Lat L_lea_complex ]
  | Shl | Shr | Sar | Rol | Ror -> [ Ports P_shift; Ports P_alu ]
  | Mul_1 | Imul_1 -> [ Ports P_imul; Lat L_imul; Ports P_alu ]
  | Div | Idiv -> [ Ports P_div; Lat L_div32; Lat L_div64 ]
  | Bswap -> [ Ports P_alu; Ports P_shift ]
  | Movap _ | Movup _ | Movdqa | Movdqu | Lddqu | Movnt _ ->
    [ Ports P_fp_mov ]
  | Movs_x _ -> [ Ports P_vec_shuffle; Ports P_fp_mov ]
  | Movd | Movq_x -> [ Ports P_xfer; Lat L_xfer ]
  | Vbroadcast _ -> [ Ports P_vec_shuffle ]
  | Fdiv _ | Fsqrt _ -> [ Ports P_fp_div; Lat L_fp_div_s; Lat L_fp_div_d ]
  | Psll _ | Psrl _ | Psra _ -> [ Ports P_vec_shift; Ports P_vec_shuffle ]
  | _ -> []

(** Canonical value signature of the fields a variant opcode class
    reads, e.g. ["ports.shift=21;ports.alu=23;"]. Part of a
    memory-block-independent generation for blocks containing the
    class: if no read field changed, the class decomposes identically. *)
let variant_signature (p : Profile.t) (op : X86.Opcode.t) =
  let reads =
    List.sort (fun a b -> compare (code a) (code b)) (variant_reads op)
  in
  String.concat ""
    (List.map (fun t -> Printf.sprintf "%d=%d;" (code t) (get p t)) reads)

(* --- localizer support ------------------------------------------------- *)

(** Bit mask of the execution ports a target's entry steers uops to —
    the localizer aligns per-port busy-cycle deltas against this. Empty
    for uop counts. *)
let port_footprint (p : Profile.t) = function
  | Ports f -> get p (Ports f)
  | Lat l -> (
    (* the port set the latency's uops issue to *)
    match l with
    | L_lea_complex -> p.lea_complex
    | L_imul -> p.imul
    | L_div32 | L_div64 -> p.div
    | L_bit_scan -> p.bit_scan
    | L_load -> p.load
    | L_vec_imul -> p.vec_imul
    | L_fp_add -> p.fp_add
    | L_fp_mul -> p.fp_mul
    | L_fp_fma -> ( match p.fp_fma with Some s -> s | None -> Port.empty)
    | L_fp_div_s | L_fp_div_d -> p.fp_div
    | L_cvt -> p.cvt
    | L_movmsk -> p.movmsk
    | L_xfer -> p.xfer)
  | Uops _ -> Port.empty
