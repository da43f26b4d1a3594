let pp_floats ppf values =
  Format.fprintf ppf "\"%s\""
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.4f") values)))

let write ppf (lib : Library.t) =
  let pr fmt = Format.fprintf ppf fmt in
  pr "/* synthetic 130nm-class library exported by tpi_repro */@.";
  pr "library (tpi_repro_130) {@.";
  pr "  time_unit : \"1ps\";@.";
  pr "  capacitive_load_unit (1, ff);@.";
  List.iter
    (fun (c : Cell.t) ->
      pr "  cell (%s) {@." c.Cell.name;
      pr "    area : %.4f;@." (Cell.area c);
      Array.iteri
        (fun k (p : Pin.t) ->
          pr "    pin (%s) {@." p.Pin.name;
          (match p.Pin.dir with
           | Pin.Input ->
             pr "      direction : input;@.";
             pr "      capacitance : %.4f;@." p.Pin.cap;
             if Pin.is_clock p then pr "      clock : true;@."
           | Pin.Output ->
             pr "      direction : output;@.";
             Array.iter
               (fun (a : Cell.arc) ->
                 if a.Cell.to_pin = k then begin
                   pr "      timing () {@.";
                   pr "        related_pin : \"%s\";@."
                     c.Cell.pins.(a.Cell.from_pin).Pin.name;
                   if a.Cell.test_only then pr "        /* test-mode only arc */@.";
                   let slews = Lut.slew_axis_of a.Cell.delay in
                   let loads = Lut.load_axis_of a.Cell.delay in
                   pr "        cell_rise (delay_template) {@.";
                   pr "          index_1 (%a);@." pp_floats slews;
                   pr "          index_2 (%a);@." pp_floats loads;
                   pr "          values ( \\@.";
                   let values = Lut.values_of a.Cell.delay in
                   Array.iteri
                     (fun i row ->
                       pr "            %a%s \\@." pp_floats row
                         (if i = Array.length values - 1 then "" else ","))
                     values;
                   pr "          );@.";
                   pr "        }@.";
                   pr "      }@."
                 end)
               c.Cell.arcs);
          pr "    }@.")
        c.Cell.pins;
      if c.Cell.sequential then begin
        pr "    ff (IQ) { /* setup %.1fps hold %.1fps */ }@." c.Cell.setup c.Cell.hold
      end;
      pr "  }@.")
    (Library.cells lib);
  pr "}@."

let to_string lib =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  write ppf lib;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let write_file path lib =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let ppf = Format.formatter_of_out_channel oc in
      write ppf lib;
      Format.pp_print_flush ppf ())
