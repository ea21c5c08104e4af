type t = {
  epsilon : float;
  granularity : float;
  max_layers : int;
  delta : float;
  max_iterations : int;
}

let class_ratio = 2.0
let tau_budget = 3000
let tau_samples = 300

let practical ?(epsilon = 0.1) () =
  if epsilon <= 0.0 || epsilon >= 1.0 then
    invalid_arg "Params.practical: epsilon must be in (0, 1)";
  {
    epsilon;
    granularity = 1.0 /. 32.0;
    max_layers = 9;
    delta = 0.1;
    max_iterations = int_of_float (Float.ceil (4.0 /. epsilon));
  }

let tau_params t =
  Tau.make_params ~granularity:t.granularity ~max_layers:t.max_layers
    ~slack:(t.epsilon ** 4.0)
