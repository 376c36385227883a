(* The SplitMix64 state (bytes 0–7) and gamma (bytes 8–15) live in a
   16-byte [Bytes], read and written through the unboxed 64-bit
   primitives. A record with [int64] fields boxed the new state on every
   draw, and [bits64] its result; here a draw that returns an [int] or a
   [bool] allocates nothing, and one that returns a [float] only its
   result's box (see the interface). *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let golden_gamma = 0x9E3779B97F4A7C15L

let make ~state ~gamma =
  let g = Bytes.create 16 in
  set64 g 0 state;
  set64 g 8 gamma;
  g

let create seed = make ~state:(Int64.of_int seed) ~gamma:golden_gamma

let copy = Bytes.copy

(* One additive (Weyl) step; the new state. *)
let[@inline] advance g =
  let z = Int64.add (get64 g 0) (get64 g 8) in
  set64 g 0 z;
  z

(* SplitMix64 output function: one additive step then two xor-shift
   multiplications (finalizer of MurmurHash3 with Stafford's mix13
   constants). Every generator the repo made before [fork] existed used
   the golden-ratio gamma, and [create]/[split] still do, so seeded
   sequences are unchanged. Inlined into every draw below, so the
   [int64]s never leave registers. *)
let[@inline] next g =
  let z = advance g in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g = next g

let split g = make ~state:(next g) ~gamma:golden_gamma

(* MurmurHash3's fmix64 with Stafford's "variant 13" shifts — the mixer
   SplitMix64 prescribes for deriving gammas, deliberately different
   from the mix13 output function above so a child's gamma is not a
   value of the parent's stream. *)
let mix_variant13 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xFF51AFD7ED558CCDL in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0xC4CEB9FE1A85EC53L in
  Int64.logxor z (Int64.shift_right_logical z 31)

let popcount64 z =
  let c = ref 0 in
  for i = 0 to 63 do
    if Int64.logand (Int64.shift_right_logical z i) 1L = 1L then incr c
  done;
  !c

let fork g =
  (* Draw the child's seed with the parent's output function, then its
     gamma from the next raw state with the variant-13 mixer, forced
     odd; gammas with too regular a bit pattern (< 24 transitions) are
     xor-scrambled, per Steele, Lea & Flood §5. *)
  let seed = next g in
  let z = Int64.logor (mix_variant13 (advance g)) 1L in
  let gamma =
    if popcount64 (Int64.logxor z (Int64.shift_right_logical z 1)) < 24 then
      Int64.logxor z 0xAAAAAAAAAAAAAAAAL
    else z
  in
  make ~state:seed ~gamma

(* Rejection sampling on the top 62 bits to avoid modulo bias. A
   top-level loop, so a call allocates no closure. *)
let rec draw_below g bound =
  let r = Int64.to_int (Int64.shift_right_logical (next g) 2) land max_int in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then draw_below g bound else v

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  draw_below g bound

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int g (hi - lo + 1)

(* A uniform draw in [0, 1): the top 53 bits over 2^53. *)
let[@inline] unit_float g =
  Int64.to_float (Int64.shift_right_logical (next g) 11) /. 9007199254740992.0 (* 2^53 *)

let float g bound = bound *. unit_float g

(* [lo +. float g (hi -. lo)] with the same operations in the same
   order, so the same bits, in one call. *)
let uniform g ~lo ~hi = lo +. ((hi -. lo) *. unit_float g)

let bool g = Int64.logand (next g) 1L = 1L

let exponential g ~mean =
  let u = 1.0 -. unit_float g in
  -.mean *. log u

let pareto g ~scale ~shape =
  let u = 1.0 -. unit_float g in
  scale /. (u ** (1.0 /. shape))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choice g a =
  if Array.length a = 0 then invalid_arg "Prng.choice: empty array";
  a.(int g (Array.length a))

let sample_weighted g weighted =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
  if total <= 0.0 then invalid_arg "Prng.sample_weighted: weights must be positive";
  let target = float g total in
  let rec pick acc = function
    | [] -> invalid_arg "Prng.sample_weighted: empty list"
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if acc +. w > target then x else pick (acc +. w) rest
  in
  pick 0.0 weighted
