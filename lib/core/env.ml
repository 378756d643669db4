module Warp_ctx = Repro_gpu.Warp_ctx
module Label = Repro_gpu.Label

type t = {
  ctx : Warp_ctx.t;
  om : Object_model.t;
  vcall : t -> objs:int array -> slot:int -> unit;
  vcall_converged : t -> objs:int array -> slot:int -> unit;
}

let restrict t ctx = { t with ctx }

let field_load t ~objs ~field = Object_model.field_load t.om t.ctx ~objs ~field

let field_store t ~objs ~field values =
  Object_model.field_store t.om t.ctx ~objs ~field values

let compute ?n t = Warp_ctx.compute ?n t.ctx ~label:Label.Body
