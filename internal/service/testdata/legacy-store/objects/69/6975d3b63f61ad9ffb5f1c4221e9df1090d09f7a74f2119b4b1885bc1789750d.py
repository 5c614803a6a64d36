from paraview.simple import *

# Read the input dataset
reader = ExodusIIReader(FileName='disk.ex2')
reader.UpdatePipeline()

# Trace streamlines seeded from a default point cloud
streamTracer = StreamTracer(registrationName='StreamTracer1', Input=reader,
                            SeedType='Point Cloud')
streamTracer.Vectors = ['POINTS', 'V']

# Render the streamlines with tubes
tube = Tube(registrationName='Tube1', Input=streamTracer)
tube.Radius = 0.075

# Add cone glyphs to indicate direction
glyph = Glyph(registrationName='Glyph1', Input=streamTracer, GlyphType='Cone')
glyph.Scalars = ['POINTS', 'Temp']
glyph.Vectors = ['POINTS', 'V']
glyph.ScaleFactor = 0.2

# Display the results
tubeDisplay = Show(tube, 'RenderView1')
glyphDisplay = Show(glyph, 'RenderView1')
renderView1 = GetActiveViewOrCreate('RenderView')
ColorBy(tubeDisplay, ('POINTS', 'Temp'))
ColorBy(glyphDisplay, ('POINTS', 'Temp'))
tubeDisplay.RescaleTransferFunctionToDataRange(True)
glyphDisplay.RescaleTransferFunctionToDataRange(True)

renderView1.CameraPosition = [1, 0, 0]
renderView1.CameraFocalPoint = [0, 0, 0]
renderView1.CameraViewUp = [0, 0, 1]

# Save a screenshot of the result
SaveScreenshot('stream-glyph-screenshot.png', renderView1,
    ImageResolution=[320, 180])
