type t = {
  input : Shape.t;
  kernel : int;
  stride : int;
  windows : int array array;
}

let output_shape t =
  Shape.conv_output t.input ~kernel:t.kernel ~stride:t.stride ~padding:0
    ~out_channels:t.input.Shape.channels

let enumerate_windows t =
  let out = output_shape t in
  let result = Array.make (Shape.size out) [||] in
  for c = 0 to out.Shape.channels - 1 do
    for oi = 0 to out.Shape.height - 1 do
      for oj = 0 to out.Shape.width - 1 do
        let members = ref [] in
        for ki = t.kernel - 1 downto 0 do
          for kj = t.kernel - 1 downto 0 do
            let ii = (oi * t.stride) + ki and ij = (oj * t.stride) + kj in
            members := Shape.index t.input ~c ~i:ii ~j:ij :: !members
          done
        done;
        result.(Shape.index out ~c ~i:oi ~j:oj) <- Array.of_list !members
      done
    done
  done;
  result

(* The windows depend on geometry only, so they are enumerated once
   here rather than on every forward and backward pass (the enumeration
   also validates the geometry). *)
let create ~input ~kernel ~stride =
  let t = { input; kernel; stride; windows = [||] } in
  { t with windows = enumerate_windows t }

let windows t = t.windows

let forward t x =
  if Array.length x <> Shape.size t.input then
    invalid_arg "Pool.forward: input dimension mismatch";
  Array.map
    (fun window ->
      (* [Stdlib.max]'s own definition, typed to floats. *)
      let acc = ref x.(window.(0)) in
      for q = 0 to Array.length window - 1 do
        let v = x.(window.(q)) in
        acc := if !acc >= v then !acc else v
      done;
      !acc)
    t.windows

let backward t ~x ~dout =
  let wins = t.windows in
  if Array.length dout <> Array.length wins then
    invalid_arg "Pool.backward: output gradient dimension mismatch";
  let dx = Array.make (Shape.size t.input) 0.0 in
  Array.iteri
    (fun o window ->
      let best = ref window.(0) in
      Array.iter (fun i -> if x.(i) > x.(!best) then best := i) window;
      dx.(!best) <- dx.(!best) +. dout.(o))
    wins;
  dx
